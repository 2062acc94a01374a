//! Workload-management ablation: concurrent sessions with and without
//! admission control, so the backpressure contract is measured rather
//! than asserted (DESIGN.md "Admission control").
//!
//! Configurations over the same deterministic table and session mix:
//!
//! * `no_admission` — the pre-WLM shape: every session goes straight
//!   to the execution-slot semaphore and queues there;
//! * `admission` — a pool sized to the cluster (running ≤ 4, queue ≤
//!   8, 5s queue deadline);
//! * `strict` — a deliberately undersized pool (running ≤ 2, queue ≤
//!   2, 1s deadline) driven through a saturation spike: all execution
//!   slots are held for the first 50ms, so admitted sessions park,
//!   the queue fills, and the overflow must bounce with typed
//!   `Saturated` errors instead of parking forever.
//!
//! Every configuration must resolve **all** sessions — success or a
//! typed backpressure error, nothing else, nothing hung — and must
//! quiesce with `available == capacity` on every node's slot
//! semaphore and empty pools. Successful sessions must return the one
//! true answer. All of that is asserted before any timing is
//! reported; p50/p99 session latency and the rejection counts land in
//! `BENCH_wlm.json`.
//!
//! Knobs: `EON_BENCH_WLM_ROWS` (default 20000), `EON_BENCH_WLM_WORKERS`
//! (default 8), `EON_BENCH_WLM_SESSIONS` (sessions per worker, default
//! 12), `EON_BENCH_S3_LAT_US` (default 200), `EON_BENCH_JSON` (output
//! path, default `BENCH_wlm.json`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use eon_bench::{metrics_summary, print_json, print_table, update_bench_json};
use eon_columnar::Projection;
use eon_core::{EonConfig, EonDb, SessionOpts};
use eon_exec::{AggSpec, Expr, Plan, ScanSpec};
use eon_obs::Registry;
use eon_storage::{S3Config, S3SimFs};
use eon_types::{schema, CancelToken, EonError, Value};

const NODES: usize = 3;
const SHARDS: usize = 3;
const SLOTS: usize = 4;

fn knob(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}

fn s3_latency() -> Duration {
    Duration::from_micros(knob("EON_BENCH_S3_LAT_US", 200) as u64)
}

struct Ablation {
    name: &'static str,
    max_concurrent: usize,
    max_queue: usize,
    timeout_ms: u64,
    /// Hold every execution slot for the first 50ms so the pool and
    /// queue fill deterministically before any session can run.
    spike: bool,
}

const CONFIGS: &[Ablation] = &[
    Ablation { name: "no_admission", max_concurrent: 0, max_queue: 0, timeout_ms: 0, spike: false },
    Ablation { name: "admission", max_concurrent: 4, max_queue: 8, timeout_ms: 5_000, spike: false },
    Ablation { name: "strict", max_concurrent: 2, max_queue: 2, timeout_ms: 1_000, spike: true },
];

/// Per-config session outcome tally.
#[derive(Default)]
struct Outcomes {
    ok: AtomicU64,
    saturated: AtomicU64,
    admission_deadline: AtomicU64,
    slot_deadline: AtomicU64,
    cancelled: AtomicU64,
    other: AtomicU64,
}

fn build_db(ab: &Ablation, rows: usize, latency: Duration) -> (Arc<EonDb>, Registry) {
    let registry = Registry::new();
    let s3 = Arc::new(S3SimFs::with_metrics(
        S3Config {
            request_latency: latency,
            ..S3Config::default()
        },
        &registry,
    ));
    let db = EonDb::create(
        s3,
        EonConfig::new(NODES, SHARDS)
            .exec_slots(SLOTS)
            .observability(registry.clone())
            .admission_max_concurrent(ab.max_concurrent)
            .admission_max_queue(ab.max_queue)
            .admission_timeout_ms(ab.timeout_ms)
            .slot_wait_ms(30_000),
    )
    .unwrap();
    let s = schema![("id", Int), ("grp", Int), ("val", Int)];
    db.create_table(
        "t",
        s.clone(),
        vec![Projection::super_projection("p", &s, &[0], &[0])],
    )
    .unwrap();
    db.copy_into(
        "t",
        (0..rows as i64)
            .map(|i| vec![Value::Int(i), Value::Int(i % 7), Value::Int(i * 37 % 1000)])
            .collect(),
    )
    .unwrap();
    (db, registry)
}

fn main() {
    let rows = knob("EON_BENCH_WLM_ROWS", 20_000);
    let workers = knob("EON_BENCH_WLM_WORKERS", 8);
    let sessions = knob("EON_BENCH_WLM_SESSIONS", 12);
    let latency = s3_latency();
    eprintln!(
        "ablate_wlm: {workers}×{sessions} sessions over {rows} rows, S3 latency {latency:?}, \
         {NODES} nodes / {SHARDS} shards / {SLOTS} slots"
    );

    let plan = Plan::scan(ScanSpec::new("t")).aggregate(vec![], vec![AggSpec::sum(Expr::col(2))]);
    let expect: i64 = (0..rows as i64).map(|i| i * 37 % 1000).sum();

    let mut table_rows = Vec::new();
    let mut config_json = Vec::new();
    let mut by_name: Vec<(&'static str, serde_json::Value)> = Vec::new();

    for ab in CONFIGS {
        eprintln!("config {} …", ab.name);
        let (db, registry) = build_db(ab, rows, latency);
        let outcomes = Arc::new(Outcomes::default());
        let latencies = Arc::new(parking_lot::Mutex::new(Vec::<f64>::new()));

        // The saturation spike: park every session behind held slots
        // so the pool and queue fill before anything drains.
        let spike_guards = if ab.spike {
            Some(
                db.membership()
                    .up_nodes()
                    .iter()
                    .map(|n| n.slots.acquire(n.slots.capacity()).unwrap())
                    .collect::<Vec<_>>(),
            )
        } else {
            None
        };

        let wall = Instant::now();
        let mut handles = Vec::new();
        for w in 0..workers {
            let db = db.clone();
            let plan = plan.clone();
            let outcomes = outcomes.clone();
            let latencies = latencies.clone();
            handles.push(thread::spawn(move || {
                for i in 0..sessions {
                    // Every 8th session carries a token that fires
                    // mid-flight (the cancellation path under load).
                    let cancel = if (w * sessions + i) % 8 == 3 {
                        let t = CancelToken::new();
                        let killer = t.clone();
                        thread::spawn(move || {
                            thread::sleep(Duration::from_millis(1));
                            killer.cancel();
                        });
                        Some(t)
                    } else {
                        None
                    };
                    let opts = SessionOpts { cancel, ..Default::default() };
                    let t0 = Instant::now();
                    let r = db.query_with(&plan, &opts);
                    latencies.lock().push(t0.elapsed().as_secs_f64() * 1e3);
                    match r {
                        Ok(out) => {
                            assert_eq!(out[0][0], Value::Int(expect), "wrong answer under load");
                            outcomes.ok.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(EonError::Saturated { .. }) => {
                            outcomes.saturated.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(EonError::DeadlineExceeded(what)) if what.contains("admission") => {
                            outcomes.admission_deadline.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(EonError::DeadlineExceeded(_)) => {
                            outcomes.slot_deadline.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(EonError::Cancelled(_)) => {
                            outcomes.cancelled.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => {
                            eprintln!("  unexpected session outcome: {e}");
                            outcomes.other.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }));
        }
        if let Some(guards) = spike_guards {
            thread::sleep(Duration::from_millis(50));
            drop(guards);
        }
        for h in handles {
            h.join().unwrap();
        }
        let wall_ms = wall.elapsed().as_secs_f64() * 1e3;

        // Quiesce gate: nothing hung (we joined), nothing leaked, and
        // every outcome was typed. Fatal before any timing is reported.
        for node in db.membership().up_nodes() {
            assert_eq!(
                node.slots.available(),
                node.slots.capacity(),
                "config {}: node {} leaked execution slots",
                ab.name,
                node.id
            );
        }
        assert_eq!(
            db.admission().pool_depths(0),
            (0, 0),
            "config {}: admission pool did not drain",
            ab.name
        );
        let total = workers * sessions;
        let counted = outcomes.ok.load(Ordering::Relaxed)
            + outcomes.saturated.load(Ordering::Relaxed)
            + outcomes.admission_deadline.load(Ordering::Relaxed)
            + outcomes.slot_deadline.load(Ordering::Relaxed)
            + outcomes.cancelled.load(Ordering::Relaxed)
            + outcomes.other.load(Ordering::Relaxed);
        assert_eq!(counted as usize, total, "config {}: sessions went missing", ab.name);
        assert_eq!(
            outcomes.other.load(Ordering::Relaxed),
            0,
            "config {}: untyped session failures",
            ab.name
        );

        let mut lat = latencies.lock().clone();
        lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let pct = |p: f64| lat[((lat.len() - 1) as f64 * p) as usize];
        let summary = metrics_summary(&registry.snapshot());
        let record = serde_json::json!({
            "config": ab.name,
            "sessions": total,
            "ok": outcomes.ok.load(Ordering::Relaxed),
            "saturated": outcomes.saturated.load(Ordering::Relaxed),
            "admission_deadline": outcomes.admission_deadline.load(Ordering::Relaxed),
            "slot_deadline": outcomes.slot_deadline.load(Ordering::Relaxed),
            "cancelled": outcomes.cancelled.load(Ordering::Relaxed),
            "wall_ms": wall_ms,
            "p50_ms": pct(0.50),
            "p99_ms": pct(0.99),
            "max_ms": pct(1.0),
            "metrics_summary": summary,
        });
        print_json("ablate_wlm", record.clone());
        table_rows.push(vec![
            ab.name.to_string(),
            format!("{}", record["ok"]),
            format!("{}", record["saturated"]),
            format!(
                "{}",
                outcomes.admission_deadline.load(Ordering::Relaxed)
                    + outcomes.slot_deadline.load(Ordering::Relaxed)
            ),
            format!("{}", record["cancelled"]),
            format!("{:.1}", pct(0.50)),
            format!("{:.1}", pct(0.99)),
        ]);
        by_name.push((ab.name, record.clone()));
        config_json.push(record);
    }

    print_table(
        &format!("WLM ablation — {workers}×{sessions} sessions, S3 TTFB {latency:?}"),
        &["config", "ok", "saturated", "deadline", "cancelled", "p50 ms", "p99 ms"],
        &table_rows,
    );

    let find = |n: &str| {
        by_name
            .iter()
            .find(|(name, _)| *name == n)
            .map(|(_, v)| v.clone())
            .unwrap()
    };
    let strict = find("strict");
    let admission = find("admission");
    // The strict pool's deadline bounds every queued session: no
    // session may outlive spike + queue deadline + query time by much.
    let strict_bound_ms = 50.0 + 1_000.0 + 10_000.0;
    let acceptance = serde_json::json!({
        "all_sessions_resolved": true, // fatal assert above
        "no_slot_leak": true,          // fatal assert above
        "strict_saturated": strict["saturated"].as_u64().unwrap_or(0) > 0,
        "strict_p99_bounded": strict["p99_ms"].as_f64().unwrap() < strict_bound_ms,
        "admission_counts_match_metrics":
            admission["metrics_summary"]["admission_rejected"] == admission["saturated"]
            && strict["metrics_summary"]["admission_rejected"] == strict["saturated"],
    });
    print_json("ablate_wlm_acceptance", acceptance.clone());
    assert!(
        acceptance["strict_saturated"].as_bool() == Some(true),
        "strict pool never saturated — the spike should guarantee typed rejections"
    );
    assert!(
        acceptance["strict_p99_bounded"].as_bool() == Some(true),
        "strict p99 exceeded the deadline bound"
    );
    assert!(
        acceptance["admission_counts_match_metrics"].as_bool() == Some(true),
        "admission metrics disagree with observed outcomes"
    );

    update_bench_json(
        "BENCH_wlm.json",
        "ablate_wlm",
        serde_json::json!({
            "rows": rows,
            "workers": workers,
            "sessions_per_worker": sessions,
            "s3_latency_us": latency.as_micros() as u64,
            "nodes": NODES,
            "shards": SHARDS,
            "exec_slots": SLOTS,
            "configs": config_json,
            "acceptance": acceptance,
        }),
    );
}
