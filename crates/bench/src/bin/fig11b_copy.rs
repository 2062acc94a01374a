//! Figure 11b: "Throughput of COPY of data file on S3" — concurrent
//! small bulk loads per minute vs client threads (10/30/50) for Eon
//! clusters of 3/6/9 nodes at 3 shards.
//!
//! Virtual-time simulation (one-core host; see `eon_bench::vsim`) over
//! the *real* writer assignment: each simulated COPY asks the live
//! cluster which node writes each shard (§4.5), occupies one slot per
//! written shard on those writers for the encode+upload service time,
//! then passes through the global commit critical section.
//!
//! Expected shape: load throughput grows with node count — writers
//! spread over more machines — with sub-linear gains as the shared
//! commit point starts to matter, matching the paper's 3→6→9 curves.
//!
//! A second, real-execution phase runs actual COPY batches through the
//! write pipeline (one execution slot vs four per node) over
//! simulated S3 with per-request latency, and prints the measured
//! throughput as `fig11b_real` JSON records.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use eon_bench::vsim::{sim_per_minute, simulate, Fragment, OpSpec};
use eon_bench::{print_json, print_table, time_once};
use eon_core::{EonConfig, EonDb};
use eon_obs::Registry;
use eon_storage::{MemFs, S3Config, S3SimFs};
use eon_workload::copyload;

const SHARDS: usize = 3;
const SLOTS: usize = 4;
/// Per-shard encode + S3 upload service time for one small COPY (the
/// paper's 50MB file, scaled).
const WRITE_MS: u64 = 120;
/// Commit critical section (metadata distribution + validation).
const COMMIT_MS: u64 = 8;
const HORIZON_MS: u64 = 60_000;

fn cluster(nodes: usize) -> Arc<EonDb> {
    let db = EonDb::create(
        Arc::new(MemFs::new()),
        EonConfig::new(nodes, SHARDS).exec_slots(SLOTS),
    )
    .unwrap();
    copyload::create_telemetry_table(&db).unwrap();
    // A little real data so writer assignment runs against a realistic
    // catalog.
    db.copy_into("telemetry", copyload::batch(300, 7, 0)).unwrap();
    db
}

fn copies_per_min(db: &EonDb, clients: usize) -> f64 {
    let caps: HashMap<u64, usize> = db
        .membership()
        .up_ids()
        .iter()
        .map(|n| (n.0, SLOTS))
        .collect();
    let out = simulate(clients, HORIZON_MS, &caps, 1, |_| {}, |_, _, _| {
        // Real §4.5 writer assignment against the live catalog.
        let snapshot = db.snapshot().unwrap();
        let assignment = db.writer_assignment(&snapshot).unwrap();
        let mut by_node: HashMap<u64, usize> = HashMap::new();
        for (_, node) in assignment {
            *by_node.entry(node.0).or_insert(0) += 1;
        }
        OpSpec {
            fragments: by_node
                .into_iter()
                .map(|(node, shards)| Fragment {
                    node,
                    slots: shards,
                    ms: WRITE_MS,
                })
                .collect(),
            serial_ms: COMMIT_MS,
        }
    });
    sim_per_minute(out.completed, HORIZON_MS)
}

/// Real-execution COPY throughput: actual `copy_into` batches through
/// the write pipeline over latency-bearing simulated S3, a one-slot
/// cluster (write pool of one) vs the full slot budget. This is the
/// measured counterpart of the virtual-time curves above (one
/// `fig11b_real` JSON record per configuration).
fn real_copy_phase() {
    const NODES: usize = 6;
    const REAL_SHARDS: usize = 6;
    const BATCHES: usize = 4;
    let rows: usize = std::env::var("EON_BENCH_LOAD_ROWS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_000);
    let latency = Duration::from_micros(
        std::env::var("EON_BENCH_S3_LAT_US")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(2_000),
    );

    let mut total_ms = Vec::new();
    for (name, slots) in [("serial", 1usize), ("parallel", SLOTS)] {
        let registry = Registry::new();
        let s3 = Arc::new(S3SimFs::with_metrics(
            S3Config { request_latency: latency, ..S3Config::default() },
            &registry,
        ));
        let db = EonDb::create(
            s3,
            EonConfig::new(NODES, REAL_SHARDS)
                .exec_slots(slots)
                .observability(registry),
        )
        .unwrap();
        copyload::create_telemetry_table(&db).unwrap();
        let total = time_once(|| {
            for b in 0..BATCHES {
                db.copy_into("telemetry", copyload::batch(rows, 7, b as u64))
                    .unwrap();
            }
        });
        let per_min = BATCHES as f64 * 60.0 / total.as_secs_f64();
        print_json(
            "fig11b_real",
            serde_json::json!({
                "config": name, "batches": BATCHES, "rows_per_batch": rows,
                "s3_latency_us": latency.as_micros() as u64,
                "total_ms": total.as_secs_f64() * 1e3, "copies_per_min": per_min,
            }),
        );
        total_ms.push(total.as_secs_f64() * 1e3);
    }
    println!(
        "\nreal COPY phase: parallel/serial speedup = {:.2}x",
        total_ms[0] / total_ms[1]
    );
}

fn main() {
    eprintln!("building clusters…");
    let clusters = [(3usize, cluster(3)), (6, cluster(6)), (9, cluster(9))];

    let mut rows = Vec::new();
    for threads in [10usize, 30, 50] {
        eprintln!("concurrency {threads}…");
        let mut cells = vec![threads.to_string()];
        for (n, db) in &clusters {
            let v = copies_per_min(db, threads);
            print_json(
                "fig11b",
                serde_json::json!({"nodes": n, "threads": threads, "copies_per_min": v}),
            );
            cells.push(format!("{v:.0}"));
        }
        rows.push(cells);
    }
    print_table(
        "Fig 11b — COPY throughput (batches/min, virtual-time)",
        &["threads", "eon 3n/3s", "eon 6n/3s", "eon 9n/3s"],
        &rows,
    );
    println!(
        "\nshape check: eon9/eon3 at 50 threads = {:.2}x (paper: grows with nodes, sub-linear)",
        rows[2][3].parse::<f64>().unwrap() / rows[2][1].parse::<f64>().unwrap()
    );

    eprintln!("real COPY phase…");
    real_copy_phase();
}
