//! Network front-door stress: hundreds of concurrent TCP clients
//! hammering one in-process `eon-server` (DESIGN.md "Network service
//! layer").
//!
//! Configurations over the same deterministic table:
//!
//! * `open` — no admission control: every connection's queries go
//!   straight to the slot semaphores and drain there;
//! * `admission` — a per-subcluster pool (running ≤ 8, queue ≤ 16,
//!   5s deadline): everything still resolves, backpressure queues;
//! * `strict_spike` — an undersized pool (2 / 2, 1s) behind a 50ms
//!   slot spike, so the overflow must bounce with **typed `SATURATED`
//!   wire errors** instead of parking the connections;
//! * `disconnect` — a 150ms slot spike while every third client sends
//!   a query and then drops the connection without reading: the
//!   server's reader must fire the session `CancelToken` and the
//!   parked query must release its holds instead of running to
//!   completion for nobody.
//!
//! Gates (fatal before any timing is reported):
//!
//! * **all-sessions-resolve** — every client thread joins and every
//!   outcome is typed (ok / `Saturated` / `DeadlineExceeded`), never
//!   hung, never an untyped failure;
//! * **no-leaked-slots** — after quiesce, `available == capacity` on
//!   every node's slot semaphore, the admission pool reads `(0, 0)`,
//!   and the server's live-session count reaches zero;
//! * **disconnect-cancels-query** — the `disconnect` configuration
//!   must observe `server_disconnect_cancels_total > 0` and still
//!   quiesce within the watchdog (the 30s slot budget would blow it
//!   if cancellation didn't fire).
//!
//! Results land in `BENCH_server.json`. Knobs:
//! `EON_BENCH_SERVER_ROWS` (default 20000), `EON_BENCH_SERVER_CONNS`
//! (concurrent connections, default 300), `EON_BENCH_SERVER_QUERIES`
//! (queries per connection, default 2), `EON_BENCH_S3_LAT_US`
//! (default 200), `EON_BENCH_JSON` (output path).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use eon_bench::{metrics_summary, print_json, print_table, update_bench_json};
use eon_columnar::Projection;
use eon_core::{EonConfig, EonDb};
use eon_net::wire::{read_frame, write_frame};
use eon_net::{
    EonClient, EonServer, Request, Response, ServerHandle, ServerOpts, SqlOutcome,
    MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
use eon_obs::Registry;
use eon_storage::{S3Config, S3SimFs};
use eon_types::{schema, EonError, Value};

const NODES: usize = 3;
const SHARDS: usize = 3;
const SLOTS: usize = 4;
const QUERY: &str = "SELECT SUM(val) FROM t";

fn knob(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}

struct Ablation {
    name: &'static str,
    max_concurrent: usize,
    max_queue: usize,
    timeout_ms: u64,
    /// Hold every execution slot for this long at the start so the
    /// pool/queue fill (or parked queries exist to cancel).
    spike_ms: u64,
    /// Every Nth connection sends a query and vanishes without
    /// reading the response (0 = nobody does).
    drop_every: usize,
}

const CONFIGS: &[Ablation] = &[
    Ablation { name: "open", max_concurrent: 0, max_queue: 0, timeout_ms: 0, spike_ms: 0, drop_every: 0 },
    Ablation { name: "admission", max_concurrent: 8, max_queue: 16, timeout_ms: 5_000, spike_ms: 0, drop_every: 0 },
    Ablation { name: "strict_spike", max_concurrent: 2, max_queue: 2, timeout_ms: 1_000, spike_ms: 50, drop_every: 0 },
    Ablation { name: "disconnect", max_concurrent: 0, max_queue: 0, timeout_ms: 0, spike_ms: 150, drop_every: 3 },
];

/// Per-config tally. Every connection must land in exactly one bucket.
#[derive(Default)]
struct Outcomes {
    ok: AtomicU64,
    saturated: AtomicU64,
    deadline: AtomicU64,
    dropped: AtomicU64,
    connect_err: AtomicU64,
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

/// Handshake, send one SQL request, and vanish: the abandoned query is
/// the server's problem — its reader must cancel it.
fn connect_and_drop(addr: std::net::SocketAddr) -> Result<(), EonError> {
    let stream = std::net::TcpStream::connect(addr)?;
    let mut w = stream.try_clone()?;
    let mut r = stream;
    write_frame(
        &mut w,
        &Request::Hello {
            protocol_version: PROTOCOL_VERSION,
            subcluster: None,
            bypass_cache: false,
            crunch: false,
        }
        .encode(),
    )?;
    let ack = read_frame(&mut r, MAX_FRAME_BYTES)?
        .ok_or_else(|| EonError::NodeDown("server closed during handshake".into()))?;
    Response::decode(&ack)?;
    write_frame(&mut w, &Request::Sql { sql: QUERY.into() }.encode())?;
    Ok(()) // both halves drop here: EOF at the server
}

/// Wait for the server's live-session count to reach zero, then assert
/// the no-leak invariants.
fn assert_quiesced(name: &str, db: &Arc<EonDb>, handle: &ServerHandle) -> f64 {
    let t0 = Instant::now();
    while handle.active_sessions() > 0 {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "config {name}: {} sessions never quiesced",
            handle.active_sessions()
        );
        thread::sleep(Duration::from_millis(2));
    }
    for node in db.membership().up_nodes() {
        assert_eq!(
            node.slots.available(),
            node.slots.capacity(),
            "config {name}: node {} leaked execution slots",
            node.id
        );
    }
    assert_eq!(
        db.admission().pool_depths(0),
        (0, 0),
        "config {name}: admission pool did not drain"
    );
    t0.elapsed().as_secs_f64() * 1e3
}

fn main() {
    let rows = knob("EON_BENCH_SERVER_ROWS", 20_000);
    let conns = knob("EON_BENCH_SERVER_CONNS", 300);
    let queries = knob("EON_BENCH_SERVER_QUERIES", 2);
    let latency = Duration::from_micros(knob("EON_BENCH_S3_LAT_US", 200) as u64);
    eprintln!(
        "ablate_server: {conns} concurrent connections × {queries} queries over {rows} rows, \
         S3 latency {latency:?}, {NODES} nodes / {SHARDS} shards / {SLOTS} slots"
    );

    let expect: i64 = (0..rows as i64).map(|i| i * 37 % 1000).sum();

    let mut table_rows = Vec::new();
    let mut config_json = Vec::new();
    let mut by_name: Vec<(&'static str, serde_json::Value)> = Vec::new();

    for ab in CONFIGS {
        eprintln!("config {} …", ab.name);
        let (db, registry) = build_db(ab, rows, latency);
        let handle = EonServer::bind(db.clone(), "127.0.0.1:0", ServerOpts::default())
            .unwrap()
            .spawn();
        let addr = handle.addr();
        let outcomes = Arc::new(Outcomes::default());
        let latencies = Arc::new(parking_lot::Mutex::new(Vec::<f64>::new()));

        let spike_guards = (ab.spike_ms > 0).then(|| {
            db.membership()
                .up_nodes()
                .iter()
                .map(|n| n.slots.acquire(n.slots.capacity()).unwrap())
                .collect::<Vec<_>>()
        });

        let wall = Instant::now();
        let mut clients = Vec::new();
        for c in 0..conns {
            let outcomes = outcomes.clone();
            let latencies = latencies.clone();
            let drop_this = ab.drop_every > 0 && c % ab.drop_every == 0;
            clients.push(thread::spawn(move || {
                if drop_this {
                    match connect_and_drop(addr) {
                        Ok(()) => outcomes.dropped.fetch_add(1, Ordering::Relaxed),
                        Err(_) => outcomes.connect_err.fetch_add(1, Ordering::Relaxed),
                    };
                    return;
                }
                let mut client = match EonClient::connect(addr) {
                    Ok(c) => c,
                    Err(_) => {
                        outcomes.connect_err.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                };
                for _ in 0..queries {
                    let t0 = Instant::now();
                    let r = client.sql(QUERY);
                    latencies.lock().push(t0.elapsed().as_secs_f64() * 1e3);
                    match r {
                        Ok(SqlOutcome::Rows { rows, .. }) => {
                            assert_eq!(
                                rows,
                                vec![vec![Value::Int(expect)]],
                                "wrong answer under load"
                            );
                            outcomes.ok.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok(_) => {
                            outcomes.other.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(EonError::Saturated { .. }) => {
                            outcomes.saturated.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(EonError::DeadlineExceeded(_)) => {
                            outcomes.deadline.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => {
                            eprintln!("  untyped session outcome: {e}");
                            outcomes.other.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }));
        }
        if let Some(guards) = spike_guards {
            thread::sleep(Duration::from_millis(ab.spike_ms));
            drop(guards);
        }
        for c in clients {
            c.join().unwrap();
        }
        let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
        let quiesce_ms = assert_quiesced(ab.name, &db, &handle);

        // All-sessions-resolve gate: every connection accounted for,
        // every outcome typed.
        assert_eq!(
            outcomes.connect_err.load(Ordering::Relaxed),
            0,
            "config {}: connections failed outright",
            ab.name
        );
        assert_eq!(
            outcomes.other.load(Ordering::Relaxed),
            0,
            "config {}: untyped session failures",
            ab.name
        );
        let expected_drops =
            if ab.drop_every > 0 { conns.div_ceil(ab.drop_every) } else { 0 };
        assert_eq!(
            outcomes.dropped.load(Ordering::Relaxed) as usize,
            expected_drops,
            "config {}: vanishing clients went missing",
            ab.name
        );
        let counted = outcomes.ok.load(Ordering::Relaxed)
            + outcomes.saturated.load(Ordering::Relaxed)
            + outcomes.deadline.load(Ordering::Relaxed);
        let normal_conns = conns - expected_drops;
        assert_eq!(
            counted as usize,
            normal_conns * queries,
            "config {}: sessions went missing",
            ab.name
        );

        let disconnect_cancels = registry
            .counter("server_disconnect_cancels_total", &[("subsystem", "server")])
            .get();

        let mut lat = latencies.lock().clone();
        lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let pct = |p: f64| if lat.is_empty() { 0.0 } else { lat[((lat.len() - 1) as f64 * p) as usize] };
        let summary = metrics_summary(&registry.snapshot());
        let record = serde_json::json!({
            "config": ab.name,
            "connections": conns,
            "queries": normal_conns * queries,
            "ok": outcomes.ok.load(Ordering::Relaxed),
            "saturated": outcomes.saturated.load(Ordering::Relaxed),
            "deadline": outcomes.deadline.load(Ordering::Relaxed),
            "dropped_conns": outcomes.dropped.load(Ordering::Relaxed),
            "disconnect_cancels": disconnect_cancels,
            "wall_ms": wall_ms,
            "quiesce_ms": quiesce_ms,
            "p50_ms": pct(0.50),
            "p99_ms": pct(0.99),
            "max_ms": pct(1.0),
            "metrics_summary": summary,
        });
        print_json("ablate_server", record.clone());
        table_rows.push(vec![
            ab.name.to_string(),
            format!("{}", record["ok"]),
            format!("{}", record["saturated"]),
            format!("{}", record["deadline"]),
            format!("{}", record["dropped_conns"]),
            format!("{}", record["disconnect_cancels"]),
            format!("{:.1}", pct(0.50)),
            format!("{:.1}", pct(0.99)),
        ]);
        by_name.push((ab.name, record.clone()));
        config_json.push(record);
    }

    print_table(
        &format!("server ablation — {conns} conns × {queries} queries, S3 TTFB {latency:?}"),
        &["config", "ok", "saturated", "deadline", "dropped", "cancels", "p50 ms", "p99 ms"],
        &table_rows,
    );

    let find = |n: &str| {
        by_name
            .iter()
            .find(|(name, _)| *name == n)
            .map(|(_, v)| v.clone())
            .unwrap()
    };
    let open = find("open");
    let strict = find("strict_spike");
    let disconnect = find("disconnect");
    let acceptance = serde_json::json!({
        // Fatal asserts above: joined threads, typed outcomes only,
        // `available == capacity` + empty pools + zero live sessions.
        "all_sessions_resolved": true,
        "no_leaked_slots": true,
        "open_all_ok": open["ok"] == open["queries"],
        "strict_saturated": strict["saturated"].as_u64().unwrap_or(0) > 0,
        "disconnect_cancels_query": disconnect["disconnect_cancels"].as_u64().unwrap_or(0) > 0,
        // Cancellation must beat the 30s slot budget by a wide margin.
        "disconnect_quiesce_bounded": disconnect["quiesce_ms"].as_f64().unwrap() < 5_000.0,
    });
    print_json("ablate_server_acceptance", acceptance.clone());
    for gate in [
        "open_all_ok",
        "strict_saturated",
        "disconnect_cancels_query",
        "disconnect_quiesce_bounded",
    ] {
        assert!(
            acceptance[gate].as_bool() == Some(true),
            "acceptance gate failed: {gate}"
        );
    }

    update_bench_json(
        "BENCH_server.json",
        "ablate_server",
        serde_json::json!({
            "rows": rows,
            "connections": conns,
            "queries_per_connection": queries,
            "s3_latency_us": latency.as_micros() as u64,
            "nodes": NODES,
            "shards": SHARDS,
            "exec_slots": SLOTS,
            "configs": config_json,
            "acceptance": acceptance,
        }),
    );
}
