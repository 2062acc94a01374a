//! Self-healing ablation: the same node flap and S3 brownout driven
//! against three configurations, so the failure detector's and circuit
//! breaker's contracts are measured rather than asserted (DESIGN.md
//! "Failure detection & degraded modes").
//!
//! Configurations over the same deterministic workload:
//!
//! * `no_detector` — the pre-supervisor shape: a killed node stays
//!   down until an **operator** restarts it, and every brownout write
//!   burns its full retry budget against the dark store;
//! * `detector` — tick-driven failure detection plus automatic
//!   subscription takeover and restart; writes still burn retries
//!   during the brownout (no breaker);
//! * `detector_breaker` — detection plus the S3 circuit breaker:
//!   after `failure_threshold` exhausted budgets the breaker opens and
//!   the remaining writes fast-fail with typed `StoreUnavailable`.
//!
//! Every configuration must serve **exact** scans through the whole
//! schedule — node down, mid-takeover, and brownout (depot-only) — and
//! must end healthy with all data intact. All of that is asserted
//! before any number is reported. Gates: auto-recovery completes with
//! zero operator interventions for the detector configs, fail-fast
//! latency is bounded (and far under a retry burn), and the breaker
//! keeps brownout store traffic strictly below the no-breaker configs
//! (no retry storm).
//!
//! Knobs: `EON_BENCH_HEALTH_ROWS` (default 4000),
//! `EON_BENCH_HEALTH_WRITES` (brownout write attempts, default 6, min
//! 4), `EON_BENCH_HEALTH_TICKS` (flap-phase ticks, default 10),
//! `EON_BENCH_JSON` (output path, default `BENCH_health.json`).

use std::sync::Arc;
use std::time::Instant;

use eon_bench::{metrics_summary, print_json, print_table, update_bench_json_default};
use eon_columnar::Projection;
use eon_core::{ClusterHealth, EonConfig, EonDb};
use eon_exec::{Plan, ScanSpec};
use eon_obs::Registry;
use eon_storage::{BreakerState, FileSystem, S3Config, S3SimFs};
use eon_types::{schema, EonError, NodeId, Value};

const NODES: usize = 3;
const SHARDS: usize = 3;
/// Breaker tuning shared by the breaker config: trip after 2 exhausted
/// budgets, fast-fail 3 admissions, then probe with 1 success to close.
const BREAKER: (u32, u32, u32) = (2, 3, 1);

fn knob(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}

struct Ablation {
    name: &'static str,
    detector: bool,
    breaker: bool,
}

const CONFIGS: &[Ablation] = &[
    Ablation { name: "no_detector", detector: false, breaker: false },
    Ablation { name: "detector", detector: true, breaker: false },
    Ablation { name: "detector_breaker", detector: true, breaker: true },
];

fn int_rows(range: std::ops::Range<i64>) -> Vec<Vec<Value>> {
    range.map(|i| vec![Value::Int(i), Value::Int(i * 3)]).collect()
}

fn build_db(ab: &Ablation, rows: usize) -> (Arc<EonDb>, Registry, Arc<S3SimFs>) {
    let registry = Registry::new();
    let s3 = Arc::new(S3SimFs::with_metrics(S3Config::instant(), &registry));
    let mut config = EonConfig::new(NODES, SHARDS)
        .observability(registry.clone())
        .exec_slots(1); // one-wide write pool: deterministic breaker accounting
    if ab.detector {
        config = config.health_ticks(1, 2, 2).supervisor_restart_ticks(3);
    }
    if ab.breaker {
        config = config.breaker(BREAKER.0, BREAKER.1, BREAKER.2);
    }
    let db = EonDb::create(s3.clone(), config).unwrap();
    let s = schema![("id", Int), ("v", Int)];
    db.create_table(
        "t",
        s.clone(),
        vec![Projection::super_projection("p", &s, &[0], &[0])],
    )
    .unwrap();
    db.copy_into("t", int_rows(0..rows as i64)).unwrap();
    (db, registry, s3)
}

fn scan_sorted(db: &Arc<EonDb>) -> Vec<Vec<Value>> {
    let mut rows = db.query(&Plan::scan(ScanSpec::new("t"))).unwrap();
    rows.sort();
    rows
}

fn pct(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * p) as usize]
}

fn main() {
    let rows = knob("EON_BENCH_HEALTH_ROWS", 4_000);
    let writes = knob("EON_BENCH_HEALTH_WRITES", 6).max(4);
    let ticks = knob("EON_BENCH_HEALTH_TICKS", 10).max(8);
    eprintln!(
        "ablate_health: {rows} rows, {writes} brownout writes, {ticks} flap ticks, \
         {NODES} nodes / {SHARDS} shards, breaker {BREAKER:?}"
    );

    let victim = NodeId(1);
    let mut table_rows = Vec::new();
    let mut config_json = Vec::new();
    let mut by_name: Vec<(&'static str, serde_json::Value)> = Vec::new();

    for ab in CONFIGS {
        eprintln!("config {} …", ab.name);
        let (db, registry, s3) = build_db(ab, rows);
        let brownout_hits =
            registry.counter("s3_faults_injected_total", &[("subsystem", "s3"), ("kind", "brownout")]);
        let mut want = int_rows(0..rows as i64);
        want.sort();
        assert_eq!(scan_sorted(&db), want, "{}: warm scan inexact", ab.name);

        let wall = Instant::now();

        // ── Phase 1: node flap ─────────────────────────────────────
        // Kill a node; the detector configs must heal it by ticking
        // alone, the baseline needs the operator. Every tick's scan
        // must stay exact (failover, then the healed layout).
        db.kill_node(victim).unwrap();
        let mut restarts = 0usize;
        let mut takeover_ops = 0usize;
        let mut scan_ms = Vec::new();
        for _ in 0..ticks {
            if ab.detector {
                let r = db.supervise_tick();
                assert!(r.errors.is_empty(), "{}: supervisor errors {:?}", ab.name, r.errors);
                restarts += r.restarted.len();
                takeover_ops += r.takeover_ops;
            }
            let t0 = Instant::now();
            assert_eq!(scan_sorted(&db), want, "{}: service gap during flap", ab.name);
            scan_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        let mut operator_interventions = 0usize;
        if ab.detector {
            assert!(restarts >= 1, "{}: dead node never auto-restarted", ab.name);
            assert!(takeover_ops >= 1, "{}: no subscription takeover", ab.name);
            assert_eq!(db.cluster_health(), ClusterHealth::Healthy, "{}", ab.name);
        } else {
            // The baseline proves the counterfactual: without the
            // supervisor the node is still down and stays down until
            // an operator acts.
            assert!(
                !db.membership().get(victim).unwrap().is_up(),
                "{}: node recovered without a detector?",
                ab.name
            );
            db.restart_node(victim).unwrap();
            operator_interventions += 1;
        }
        // Re-warm every depot (the rejoiner included) so the brownout
        // phase measures depot-only reads, not cold misses.
        for _ in 0..2 {
            assert_eq!(scan_sorted(&db), want, "{}: post-heal scan inexact", ab.name);
        }

        // ── Phase 2: S3 brownout ───────────────────────────────────
        let hits_before = brownout_hits.get();
        let cost_before = s3.stats().cost_nanodollars;
        s3.set_brownout(true);
        for _ in 0..3 {
            assert_eq!(scan_sorted(&db), want, "{}: depot-only read failed", ab.name);
        }
        assert_eq!(
            s3.stats().cost_nanodollars,
            cost_before,
            "{}: brownout reads touched the store",
            ab.name
        );
        let batch = int_rows(rows as i64..rows as i64 + 100);
        let mut fast_fails = 0usize;
        let mut slow_fails = 0usize;
        let mut fast_ms = Vec::new();
        let mut slow_ms = Vec::new();
        for i in 0..writes {
            let t0 = Instant::now();
            let r = db.copy_into("t", batch.clone());
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            match r {
                Ok(_) => panic!("{}: write {i} succeeded during brownout", ab.name),
                Err(EonError::StoreUnavailable(_)) => {
                    fast_fails += 1;
                    fast_ms.push(ms);
                }
                Err(EonError::Storage(_)) => {
                    slow_fails += 1;
                    slow_ms.push(ms);
                }
                Err(e) => panic!("{}: write {i}: unexpected error {e}", ab.name),
            }
        }
        let brownout_store_hits = brownout_hits.get() - hits_before;
        s3.set_brownout(false);

        // ── Phase 3: recovery ──────────────────────────────────────
        // The open breaker must drain its cooldown, probe, and close
        // by itself; the no-breaker configs succeed immediately.
        let mut recovery_attempts = 0usize;
        let mut recovered = false;
        for _ in 0..10 {
            recovery_attempts += 1;
            match db.copy_into("t", batch.clone()) {
                Ok(_) => {
                    recovered = true;
                    break;
                }
                Err(EonError::StoreUnavailable(_)) => continue, // cooldown
                Err(e) => panic!("{}: post-brownout write: {e}", ab.name),
            }
        }
        assert!(recovered, "{}: writes never recovered after the brownout", ab.name);
        if let Some(b) = db.breaker() {
            assert_eq!(b.state(), BreakerState::Closed, "{}: breaker stuck", ab.name);
        }
        assert_eq!(db.cluster_health(), ClusterHealth::Healthy, "{}: not healthy", ab.name);
        want.extend(batch.clone());
        want.sort();
        assert_eq!(scan_sorted(&db), want, "{}: final state inexact", ab.name);
        let wall_ms = wall.elapsed().as_secs_f64() * 1e3;

        fast_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
        slow_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
        scan_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let record = serde_json::json!({
            "config": ab.name,
            "operator_interventions": operator_interventions,
            "restarts": restarts,
            "takeover_ops": takeover_ops,
            "flap_scan_p50_ms": pct(&scan_ms, 0.50),
            "brownout_writes": writes,
            "fast_fails": fast_fails,
            "slow_fails": slow_fails,
            "brownout_store_hits": brownout_store_hits,
            "fastfail_max_ms": pct(&fast_ms, 1.0),
            "slowfail_p50_ms": pct(&slow_ms, 0.50),
            "recovery_attempts": recovery_attempts,
            "wall_ms": wall_ms,
            "metrics_summary": metrics_summary(&registry.snapshot()),
        });
        print_json("ablate_health", record.clone());
        table_rows.push(vec![
            ab.name.to_string(),
            format!("{operator_interventions}"),
            format!("{restarts}"),
            format!("{takeover_ops}"),
            format!("{fast_fails}/{slow_fails}"),
            format!("{brownout_store_hits}"),
            format!("{:.3}", pct(&fast_ms, 1.0)),
            format!("{:.3}", pct(&slow_ms, 0.50)),
        ]);
        by_name.push((ab.name, record.clone()));
        config_json.push(record);
    }

    print_table(
        &format!("Self-healing ablation — {rows} rows, {writes} brownout writes"),
        &[
            "config",
            "operator",
            "restarts",
            "takeovers",
            "fast/slow",
            "store hits",
            "fastfail max ms",
            "slowfail p50 ms",
        ],
        &table_rows,
    );

    let find = |n: &str| {
        by_name.iter().find(|(name, _)| *name == n).map(|(_, v)| v.clone()).unwrap()
    };
    let baseline = find("no_detector");
    let detector = find("detector");
    let breaker = find("detector_breaker");
    let u = |v: &serde_json::Value, k: &str| v[k].as_u64().unwrap_or(0);
    let f = |v: &serde_json::Value, k: &str| v[k].as_f64().unwrap_or(f64::NAN);

    // Gate 1: auto-recovery completes — detector configs heal the flap
    // with zero operator interventions; the baseline needed one.
    let auto_recovery = u(&detector, "operator_interventions") == 0
        && u(&breaker, "operator_interventions") == 0
        && u(&detector, "restarts") >= 1
        && u(&breaker, "restarts") >= 1
        && u(&baseline, "operator_interventions") == 1;
    // Gate 2: fail-fast latency bounded — a breaker rejection is far
    // cheaper than a retry burn (and absolutely bounded).
    let fail_fast = u(&breaker, "fast_fails") >= 1
        && f(&breaker, "fastfail_max_ms") < 50.0
        && f(&breaker, "fastfail_max_ms") < f(&baseline, "slowfail_p50_ms");
    // Gate 3: no retry storm — the breaker trips after its threshold
    // plus at most one dark probe, and keeps brownout store traffic
    // strictly below the no-breaker configs.
    let trip_budget = (BREAKER.0 + BREAKER.2) as u64;
    let no_storm = u(&breaker, "slow_fails") <= trip_budget
        && u(&breaker, "brownout_store_hits") < u(&baseline, "brownout_store_hits")
        && u(&breaker, "brownout_store_hits") < u(&detector, "brownout_store_hits");
    let acceptance = serde_json::json!({
        "exact_through_flap_and_brownout": true, // fatal asserts above
        "auto_recovery_completes": auto_recovery,
        "fail_fast_latency_bounded": fail_fast,
        "no_retry_storm": no_storm,
    });
    print_json("ablate_health_acceptance", acceptance.clone());
    assert!(auto_recovery, "auto-recovery gate failed: {baseline} {detector} {breaker}");
    assert!(fail_fast, "fail-fast latency gate failed: {breaker} vs {baseline}");
    assert!(no_storm, "retry-storm gate failed: {breaker} vs {baseline}");

    let breaker_cfg = serde_json::json!({
        "failure_threshold": (BREAKER.0),
        "cooldown": (BREAKER.1),
        "half_open_probes": (BREAKER.2),
    });
    update_bench_json_default(
        "BENCH_health.json",
        "ablate_health",
        serde_json::json!({
            "rows": rows,
            "brownout_writes": writes,
            "flap_ticks": ticks,
            "nodes": NODES,
            "shards": SHARDS,
            "breaker": breaker_cfg,
            "configs": config_json,
            "acceptance": acceptance,
        }),
    );
}
