//! Figure 11a: "Scale-out performance of Eon through Elastic Throughput
//! Scaling" — queries per minute vs concurrent client threads
//! (10/30/50/70) for Eon clusters of 3/6/9 nodes at a fixed 3 shards,
//! and a 9-node Enterprise cluster.
//!
//! Time is virtual (see `eon_bench::vsim` — this host has one core),
//! but every scheduling decision is real: each simulated query calls
//! the live cluster's §4.1 participant selection, so the session-seeded
//! max-flow spreading is exactly what produces the scale-out. The
//! per-fragment service time models the paper's ~100ms dashboard query.
//!
//! Expected shape: Eon throughput grows near-linearly 3→6→9 nodes
//! (§4.2: a query takes S of N·E slots); Enterprise's fixed layout puts
//! every query on all 9 nodes, so it saturates at the per-node slot
//! limit — the paper notes the 9-node Enterprise cluster "exhibits
//! performance degradation because the additional compute resources are
//! not worth the overhead of assembling them".

use std::collections::HashMap;
use std::sync::Arc;

use eon_bench::vsim::{sim_per_minute, simulate, Fragment, OpSpec};
use eon_bench::{metrics_summary, print_json, print_table};
use eon_core::{EonConfig, EonDb, SessionOpts};
use eon_enterprise::{EnterpriseConfig, EnterpriseDb};
use eon_obs::Registry;
use eon_storage::{S3Config, S3SimFs};
use eon_workload::dashboard;

const SHARDS: usize = 3;
const SLOTS: usize = 4;
/// The paper's dashboard query "usually runs in about 100 milliseconds".
const FRAG_MS: u64 = 100;
const HORIZON_MS: u64 = 60_000;

/// Build one Eon cluster over an instant (zero-latency) simulated S3
/// with its own metrics registry, so each configuration's depot hit
/// ratio and S3 request mix can be dumped separately at the end.
fn eon_cluster(nodes: usize, data: &dashboard::DashboardData, registry: &Registry) -> Arc<EonDb> {
    let s3 = Arc::new(S3SimFs::with_metrics(S3Config::instant(), registry));
    let db = EonDb::create(
        s3,
        EonConfig::new(nodes, SHARDS)
            .exec_slots(SLOTS)
            .observability(registry.clone()),
    )
    .unwrap();
    dashboard::load_eon(&db, data).unwrap();
    db
}

fn eon_qpm(db: &EonDb, clients: usize) -> f64 {
    let caps: HashMap<u64, usize> = db
        .membership()
        .up_ids()
        .iter()
        .map(|n| (n.0, SLOTS))
        .collect();
    let out = simulate(clients, HORIZON_MS, &caps, 1, |_| {}, |_, _, _| {
        // Real participant selection against the live catalog (§4.1).
        let p = db.participation(&SessionOpts::default()).unwrap();
        OpSpec {
            fragments: p
                .workers
                .into_iter()
                .map(|(node, shards, _)| Fragment {
                    node: node.0,
                    slots: shards.len().max(1),
                    ms: FRAG_MS,
                })
                .collect(),
            serial_ms: 0,
        }
    });
    sim_per_minute(out.completed, HORIZON_MS)
}

fn enterprise_qpm(db: &EnterpriseDb, clients: usize) -> f64 {
    let caps: HashMap<u64, usize> = (0..db.nodes().len() as u64).map(|n| (n, SLOTS)).collect();
    let out = simulate(clients, HORIZON_MS, &caps, 1, |_| {}, |_, _, _| {
        // The fixed layout: every query runs on every up node, one slot
        // per segment it serves (§2.2).
        let servers = db.segment_servers().unwrap();
        let mut by_node: HashMap<u64, usize> = HashMap::new();
        for node in servers {
            *by_node.entry(node as u64).or_insert(0) += 1;
        }
        OpSpec {
            fragments: by_node
                .into_iter()
                .map(|(node, slots)| Fragment {
                    node,
                    slots,
                    ms: FRAG_MS,
                })
                .collect(),
            serial_ms: 0,
        }
    });
    sim_per_minute(out.completed, HORIZON_MS)
}

fn main() {
    let data = dashboard::generate(2_000, 0x11a);
    eprintln!("building clusters…");
    let regs: Vec<(&str, Registry)> = ["eon3", "eon6", "eon9"]
        .into_iter()
        .map(|l| (l, Registry::new()))
        .collect();
    let eon3 = eon_cluster(3, &data, &regs[0].1);
    let eon6 = eon_cluster(6, &data, &regs[1].1);
    let eon9 = eon_cluster(9, &data, &regs[2].1);
    let ent9 = EnterpriseDb::create(EnterpriseConfig {
        num_nodes: 9,
        exec_slots: SLOTS,
        wos_threshold: 1_000_000,
    });
    dashboard::load_enterprise(&ent9, &data).unwrap();

    let mut rows = Vec::new();
    for threads in [10usize, 30, 50, 70] {
        eprintln!("concurrency {threads}…");
        let e3 = eon_qpm(&eon3, threads);
        let e6 = eon_qpm(&eon6, threads);
        let e9 = eon_qpm(&eon9, threads);
        let en = enterprise_qpm(&ent9, threads);
        for (label, v) in [("eon3", e3), ("eon6", e6), ("eon9", e9), ("enterprise9", en)] {
            print_json(
                "fig11a",
                serde_json::json!({"config": label, "threads": threads, "qpm": v}),
            );
        }
        rows.push(vec![
            threads.to_string(),
            format!("{e3:.0}"),
            format!("{e6:.0}"),
            format!("{e9:.0}"),
            format!("{en:.0}"),
        ]);
    }
    // The simulated queries above only exercise participant selection;
    // run one real dashboard query per cluster so the depot read path
    // (hits/misses) shows up in the dump alongside the load-time puts.
    for db in [&eon3, &eon6, &eon9] {
        db.query(&dashboard::short_query(0)).unwrap();
        db.query(&dashboard::short_query(0)).unwrap();
    }

    // Per-configuration observability dump: the load and the queries
    // above drove the real depot and S3 paths, so each registry now
    // holds that cluster's request mix.
    for (label, reg) in &regs {
        let snapshot = reg.snapshot();
        print_json(
            "fig11a_metrics",
            serde_json::json!({
                "config": label,
                "summary": metrics_summary(&snapshot),
                "snapshot": snapshot,
            }),
        );
    }

    print_table(
        "Fig 11a — dashboard query throughput (queries/min, virtual-time)",
        &["threads", "eon 3n/3s", "eon 6n/3s", "eon 9n/3s", "enterprise 9n"],
        &rows,
    );
    println!(
        "\nshape check: eon9/eon3 at 70 threads = {:.2}x (paper: near-linear scale-out)",
        rows[3][3].parse::<f64>().unwrap() / rows[3][1].parse::<f64>().unwrap()
    );
}
