//! Figure 12: "Throughput, Eon Mode, 4 nodes, kill 1 node" — a query
//! stream's throughput over a timeline; one node is killed mid-run.
//!
//! Virtual-time simulation (one-core host; see `eon_bench::vsim`) over
//! the *real* cluster: the kill happens to the live membership at the
//! marked interval, and every subsequent query's participant selection
//! (§4.1) sees the real post-failure subscription state. The Enterprise
//! series uses the real buddy failover (§2.2).
//!
//! Expected shape: Eon (4 nodes, 3 shards) degrades smoothly — the
//! remaining three nodes still cover all shards one-to-one. Enterprise
//! (4 nodes = 4 segments) cliffs: the buddy serves two segments, every
//! query needs two slots on it, and the whole cluster queues behind
//! that node.

use std::collections::HashMap;
use std::sync::Arc;

use eon_bench::vsim::{sim_per_minute, simulate, Fragment, OpSpec};
use eon_bench::{print_json, print_table};
use eon_core::{EonConfig, EonDb, SessionOpts};
use eon_enterprise::{EnterpriseConfig, EnterpriseDb};
use eon_storage::MemFs;
use eon_workload::dashboard;

const SLOTS: usize = 4;
const FRAG_MS: u64 = 100;
const CLIENTS: usize = 12;
const INTERVALS: usize = 10;
const KILL_AT: usize = 4;
const HORIZON_MS: u64 = 120_000;

fn main() {
    let data = dashboard::generate(2_000, 0x12);

    eprintln!("Eon 4 nodes / 3 shards…");
    let eon = EonDb::create(Arc::new(MemFs::new()), EonConfig::new(4, 3).exec_slots(SLOTS)).unwrap();
    dashboard::load_eon(&eon, &data).unwrap();
    let caps: HashMap<u64, usize> = (0..4u64).map(|n| (n, SLOTS)).collect();
    let eon_out = simulate(
        CLIENTS,
        HORIZON_MS,
        &caps,
        INTERVALS,
        |i| {
            if i == KILL_AT {
                eprintln!("  killing eon node 1");
                eon.kill_node(eon_types::NodeId(1)).unwrap();
            }
        },
        |_, _, _| {
            let p = eon.participation(&SessionOpts::default()).unwrap();
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
        },
    );

    eprintln!("Enterprise 4 nodes / 4 segments…");
    let ent = EnterpriseDb::create(EnterpriseConfig {
        num_nodes: 4,
        exec_slots: SLOTS,
        wos_threshold: 1_000_000,
    });
    dashboard::load_enterprise(&ent, &data).unwrap();
    let ent_out = simulate(
        CLIENTS,
        HORIZON_MS,
        &caps,
        INTERVALS,
        |i| {
            if i == KILL_AT {
                eprintln!("  killing enterprise node 1");
                ent.node(1).kill();
            }
        },
        |_, _, _| {
            let servers = ent.segment_servers().unwrap();
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
        },
    );

    let interval_ms = HORIZON_MS / INTERVALS as u64;
    let to_qpm =
        |s: &[u64]| -> Vec<f64> { s.iter().map(|&c| sim_per_minute(c, interval_ms)).collect() };
    let eon_series = to_qpm(&eon_out.per_interval);
    let ent_series = to_qpm(&ent_out.per_interval);

    let rows: Vec<Vec<String>> = (0..INTERVALS)
        .map(|i| {
            vec![
                format!("t{i}{}", if i == KILL_AT { " (kill)" } else { "" }),
                format!("{:.0}", eon_series[i]),
                format!("{:.0}", ent_series[i]),
            ]
        })
        .collect();
    print_table(
        "Fig 12 — throughput timeline, kill 1 of 4 nodes (queries/min, virtual-time)",
        &["interval", "eon 4n/3s", "enterprise 4n"],
        &rows,
    );
    print_json(
        "fig12",
        serde_json::json!({"eon": eon_series, "enterprise": ent_series}),
    );

    let retain = |s: &[f64]| {
        let before = s[..KILL_AT].iter().sum::<f64>() / KILL_AT as f64;
        let after =
            s[KILL_AT + 1..].iter().sum::<f64>() / (INTERVALS - KILL_AT - 1) as f64;
        after / before
    };
    println!(
        "\nthroughput retained after node kill: eon {:.0}%  enterprise {:.0}% (paper: eon smooth, enterprise cliff)",
        retain(&eon_series) * 100.0,
        retain(&ent_series) * 100.0
    );
}
