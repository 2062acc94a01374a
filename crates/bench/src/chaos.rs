//! Crash-schedule chaos harness (DESIGN.md "Fault model").
//!
//! Drives a fixed workload schedule — loads, a parallel query, DML,
//! mergeout, metadata sync, restart of every node, and a full §3.5
//! revive — against a cluster whose [`FaultPlan`] is armed to crash at
//! one named site. After every injected crash the harness restarts the
//! dead nodes and re-runs the failed step (the plan is one-shot, so the
//! retry runs clean), then verifies the crash-consistency invariants
//! via [`eon_core::check_crash_invariants`]:
//!
//! * committed data answers **exactly** (nothing lost, nothing
//!   duplicated, no uncommitted rows visible);
//! * every catalog reference resolves on shared storage;
//! * the leak scan reclaims every crash-orphaned upload.
//!
//! The whole run is deterministic for a given `(seed, ambiguous)`
//! pair: the fault plan, the S3 simulator's failure dice, participant
//! selection, and mergeout all draw from seeded RNGs, so two runs fire
//! the same crashes and converge to the same final state. The
//! [`CrashRunReport::digest`] folds the fired sites, the final table
//! contents, and the surviving `data/` keys into one value the
//! determinism tests (and `chaos_sweep --seeds N`) compare across runs.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use eon_columnar::pruning::CmpOp;
use eon_columnar::{Predicate, Projection};
use eon_core::{check_crash_invariants, EonConfig, EonDb, TableModel};
use eon_exec::{Plan, ScanSpec};
use eon_obs::Registry;
use eon_storage::fault::{site, SITES};
use eon_storage::{FaultInjector, FaultPlan, S3Config, S3SimFs};
use eon_types::{schema, EonError, NodeId, Value};

/// Nodes (= shards) in the chaos cluster. Small enough to keep a
/// 32-seed sweep fast, large enough that one dead node leaves the
/// cluster viable (k-safety 1) and failover has somewhere to go.
const NODES: usize = 3;

/// Ambiguous-outcome probability when the sweep runs in `ambiguous`
/// mode: one in twenty PUT/DELETEs is applied but reports an error.
const AMBIGUOUS_RATE: f64 = 0.05;

/// Outcome of one crash-schedule run that upheld every invariant.
#[derive(Debug, Clone)]
pub struct CrashRunReport {
    /// Site names of the injected crashes, in firing order.
    pub fired: Vec<String>,
    /// Injected crashes observed by the driver (a crash during
    /// recovery itself also counts).
    pub crashes: usize,
    /// Orphaned objects the post-crash leak scans reclaimed.
    pub reclaimed: usize,
    /// Rows the table holds at the end of the schedule.
    pub rows: usize,
    /// Order-insensitive fingerprint of (fired sites, final rows,
    /// surviving `data/` keys) for cross-run determinism checks.
    pub digest: u64,
    /// Deterministic metrics snapshot (JSON text) covering the whole
    /// run: depot counters, S3 requests by verb, injected faults,
    /// retries, mergeout totals. Byte-identical across same-seed runs.
    pub metrics: String,
}

/// Arm a seeded plan over every named site and run the schedule.
pub fn seeded_crash_schedule(seed: u64, ambiguous: bool) -> Result<CrashRunReport, String> {
    crash_schedule(FaultPlan::seeded(seed, SITES, NODES as u64), seed, ambiguous)
}

/// Kill-and-restart every node in turn. Cycling even healthy nodes
/// gives each a fresh instance id, so uploads orphaned by an earlier
/// crash stop looking like a live node's in-flight work and the leak
/// scan may reclaim them. A fault firing *during* recovery (e.g. a
/// checkpoint site reached while catching up) counts as one more crash
/// and the restart is retried — the plan is one-shot, so the second
/// attempt runs clean.
fn restart_all(db: &Arc<EonDb>, crashes: &mut usize) -> Result<(), String> {
    for id in 0..NODES as u64 {
        let mut attempts = 0;
        loop {
            if let Some(node) = db.membership().get(NodeId(id)) {
                if node.is_up() {
                    db.kill_node(NodeId(id))
                        .map_err(|e| format!("kill node{id}: {e}"))?;
                }
            }
            match db.restart_node(NodeId(id)) {
                Ok(_) => break,
                Err(EonError::FaultInjected(_)) if attempts == 0 => {
                    attempts += 1;
                    *crashes += 1;
                }
                Err(e) => return Err(format!("restart node{id}: {e}")),
            }
        }
    }
    Ok(())
}

/// Run one schedule step. An injected crash "kills the process": the
/// driver restarts every node (fresh instances, local recovery from
/// shared storage) and re-runs the step, which must then succeed —
/// every fault site sits *before* its commit, so a crashed step left
/// no committed trace and the retry is a plain re-execution.
fn step<F>(db: &Arc<EonDb>, crashes: &mut usize, what: &str, f: F) -> Result<(), String>
where
    F: Fn(&Arc<EonDb>) -> eon_types::Result<()>,
{
    match f(db) {
        Ok(()) => Ok(()),
        Err(EonError::FaultInjected(site)) => {
            *crashes += 1;
            restart_all(db, crashes)?;
            f(db).map_err(|e| format!("{what}: retry after crash at {site} failed: {e}"))
        }
        Err(e) => Err(format!("{what}: {e}")),
    }
}

fn int_rows(range: std::ops::Range<i64>) -> Vec<Vec<Value>> {
    range.map(|i| vec![Value::Int(i), Value::Int(i * 7)]).collect()
}

fn scan_sorted(db: &Arc<EonDb>) -> Result<Vec<Vec<Value>>, String> {
    let mut rows = db
        .query(&Plan::scan(ScanSpec::new("t")))
        .map_err(|e| format!("scan: {e}"))?;
    rows.sort();
    Ok(rows)
}

/// Outcome of one flap-and-brownout schedule (DESIGN.md "Failure
/// detection & degraded modes") that upheld every invariant.
#[derive(Debug, Clone)]
pub struct HealthRunReport {
    /// The failure detector's declaration trace
    /// (`t<tick> <node> SUSPECT|DOWN|RECOVERED` per line) — the primary
    /// determinism artifact: same seed ⇒ byte-identical trace.
    pub trace: String,
    /// Supervisor auto-restarts (must be ≥ 1: the dead node came back
    /// with zero operator intervention).
    pub restarts: usize,
    /// Subscription-takeover catalog ops the supervisor committed.
    pub takeover_ops: usize,
    /// Queries served *during* the S3 brownout (depot-only reads).
    pub brownout_reads: usize,
    /// Writes the open breaker rejected fast with `StoreUnavailable`.
    pub write_fast_fails: usize,
    /// Writes that burned a full retry budget during the brownout
    /// (before the breaker opened; bounds the retry storm).
    pub write_slow_fails: usize,
    /// Rows the table holds at the end of the schedule.
    pub rows: usize,
    /// Fingerprint of (trace, final rows, surviving `data/` keys).
    pub digest: u64,
    /// Deterministic metrics snapshot (JSON text) for the whole run.
    pub metrics: String,
}

/// Seeded self-healing schedule: a node flap (kill, brief return, kill
/// again — hysteresis must declare DOWN exactly once), automatic
/// subscription takeover and auto-restart, then an S3 brownout window
/// during which depot-only reads keep serving while writes fast-fail,
/// with automatic breaker recovery after the brownout clears. The
/// driver never repairs anything itself — every recovery action comes
/// from `supervise_tick` or the breaker. Deterministic per seed.
pub fn flap_brownout_schedule(seed: u64) -> Result<HealthRunReport, String> {
    let registry = Registry::new();
    let s3 = Arc::new(S3SimFs::with_metrics(
        S3Config {
            seed,
            ..S3Config::instant()
        },
        &registry,
    ));
    // One slot per node, so the write pool is one wide: parallel
    // uploads would race the breaker's failure accounting and break
    // byte-identical same-seed metrics.
    let config = EonConfig::new(NODES, NODES)
        .observability(registry.clone())
        .health_ticks(1, 2, 2)
        .supervisor_restart_ticks(3)
        .breaker(2, 3, 1)
        .exec_slots(1);
    let db = EonDb::create(s3.clone(), config).map_err(|e| format!("create: {e}"))?;
    let s = schema![("id", Int), ("v", Int)];
    db.create_table(
        "t",
        s.clone(),
        vec![Projection::super_projection("p", &s, &[0], &[0])],
    )
    .map_err(|e| format!("create_table: {e}"))?;

    let mut model = TableModel::new("t");
    let batch = int_rows(0..600);
    db.copy_into("t", batch.clone())
        .map_err(|e| format!("copy: {e}"))?;
    model.rows.extend(batch);
    // Warm every depot so brownout reads are pure cache hits.
    scan_sorted(&db)?;

    let mut report = HealthRunReport {
        trace: String::new(),
        restarts: 0,
        takeover_ops: 0,
        brownout_reads: 0,
        write_fast_fails: 0,
        write_slow_fails: 0,
        rows: 0,
        digest: 0,
        metrics: String::new(),
    };

    // ---- Phase 1: node flap -------------------------------------
    // The victim is seed-derived; the schedule of kills/returns is
    // fixed in ticks. kill → miss (SUSPECT) → brief return (one hit:
    // below the recover_after=2 hysteresis, misses keep accumulating)
    // → kill → miss (DOWN, exactly once). Takeover and auto-restart
    // then run with zero operator involvement.
    let victim = NodeId(seed % NODES as u64);
    let mut want = model.rows.clone();
    want.sort();
    db.kill_node(victim).map_err(|e| format!("kill: {e}"))?;
    for tick in 1..=14u64 {
        if tick == 2 {
            // Flap up: the node blips back for one tick...
            db.restart_node(victim).map_err(|e| format!("flap up: {e}"))?;
        }
        if tick == 3 {
            // ...and dies again before hysteresis clears its misses.
            db.kill_node(victim).map_err(|e| format!("flap down: {e}"))?;
        }
        let r = db.supervise_tick();
        report.takeover_ops += r.takeover_ops;
        report.restarts += r.restarted.len();
        if !r.errors.is_empty() {
            return Err(format!("supervisor tick {tick}: {:?}", r.errors));
        }
        // Service continues throughout: exact answers on every tick.
        let got = scan_sorted(&db)?;
        if got != want {
            return Err(format!(
                "tick {tick}: inexact scan during outage ({} rows, want {})",
                got.len(),
                want.len()
            ));
        }
    }
    if report.restarts == 0 {
        return Err("supervisor never auto-restarted the flapped node".into());
    }
    if !matches!(db.cluster_health(), eon_core::ClusterHealth::Healthy) {
        return Err(format!(
            "cluster not healthy after self-heal: {}",
            db.cluster_health()
        ));
    }

    // ---- Phase 2: S3 brownout -----------------------------------
    s3.set_brownout(true);
    for _ in 0..3 {
        let got = scan_sorted(&db)?;
        if got != want {
            return Err("depot-only read inexact during brownout".into());
        }
        report.brownout_reads += 1;
    }
    let brown_batch = int_rows(600..650);
    for i in 0..6 {
        match db.copy_into("t", brown_batch.clone()) {
            Ok(_) => return Err(format!("write {i} succeeded during brownout")),
            Err(EonError::StoreUnavailable(_)) => report.write_fast_fails += 1,
            Err(EonError::Storage(_)) => report.write_slow_fails += 1,
            Err(e) => return Err(format!("write {i}: unexpected error {e}")),
        }
    }
    if report.write_fast_fails == 0 {
        return Err("breaker never fast-failed a write during brownout".into());
    }
    // The retry storm is bounded: only the writes that tripped the
    // breaker plus the post-cooldown probe burn a backoff budget
    // (without the breaker all six would). 2 to trip + 1 probe = 3.
    if report.write_slow_fails > 3 {
        return Err(format!(
            "retry storm: {} writes burned a full backoff budget",
            report.write_slow_fails
        ));
    }

    // ---- Phase 3: brownout clears, breaker self-recovers --------
    s3.set_brownout(false);
    let recover_batch = int_rows(650..700);
    let mut recovered = false;
    for _ in 0..8 {
        match db.copy_into("t", recover_batch.clone()) {
            Ok(_) => {
                model.rows.extend(recover_batch.clone());
                recovered = true;
                break;
            }
            Err(EonError::StoreUnavailable(_)) => continue, // cooldown
            Err(e) => return Err(format!("post-brownout write: {e}")),
        }
    }
    if !recovered {
        return Err("breaker never recovered after the brownout cleared".into());
    }

    // Invariants: committed data exact, catalog references resolve,
    // aborted brownout uploads reclaimed.
    check_crash_invariants(&db, std::slice::from_ref(&model))
        .map_err(|e| format!("invariants: {e}"))?;

    report.trace = db.health_trace();
    let rows = scan_sorted(&db)?;
    report.rows = rows.len();
    let mut keys = db
        .shared()
        .list("data/")
        .map_err(|e| format!("list: {e}"))?;
    keys.sort();
    let mut h = DefaultHasher::new();
    report.trace.hash(&mut h);
    format!("{rows:?}").hash(&mut h);
    keys.hash(&mut h);
    report.digest = h.finish();
    report.metrics = registry.deterministic_snapshot().to_string();
    Ok(report)
}

/// The commit crash sites, in the order the seed cycles them. Every
/// commit passes them, but they stay out of [`SITES`]: a fired commit
/// site is the leader's death with every in-memory catalog gone, which
/// only `cold_restart_all` recovers — the per-site recovery loop of
/// `crash_schedule` does not perform it, and adding to `SITES` would
/// change which site every existing seed picks.
const GROUP_SITES: &[&str] = &[
    site::COMMIT_LEADER_APPEND,
    site::COMMIT_MID_DISTRIBUTION,
    site::COMMIT_POST_APPEND,
];

/// How many commit crash sites [`crash_schedule_group_commit`] cycles:
/// seeds `0..GROUP_COMMIT_SITES` arm each exactly once.
pub const GROUP_COMMIT_SITES: usize = GROUP_SITES.len();

/// Outcome of one group-commit crash schedule that upheld every
/// invariant.
#[derive(Debug, Clone)]
pub struct GroupCommitRunReport {
    /// The armed crash site (seed-selected from the group-commit
    /// sites).
    pub site: String,
    /// Whether the batch survived the crash — true exactly when the
    /// crash hit after the coordinator's durable batch append.
    pub batch_durable: bool,
    /// Orphaned objects the post-crash leak scan reclaimed.
    pub reclaimed: usize,
    /// Rows the table holds at the end of the schedule.
    pub rows: usize,
    /// Fingerprint of (site, final rows, surviving `data/` keys).
    pub digest: u64,
    /// Deterministic metrics snapshot (JSON text) for the whole run.
    pub metrics: String,
}

/// Group-commit crash schedule (DESIGN.md "Group commit"): park a full
/// batch of sequenced concurrent single-row COPYs in the accumulator,
/// crash the batch leader at a seed-selected point — before the
/// coordinator's durable append, mid-distribution, or after every
/// append but before waking the members — then cold-restart the whole
/// cluster (the leader's death loses every in-memory catalog) and
/// verify the batch-durability invariant:
///
/// * **prefix-or-nothing, never a gap**: every node's durable log
///   holds the whole batch or none of it — the batch is one atomic
///   multi-record file;
/// * a leader-append crash aborts the batch and the leak scan reclaims
///   every member's orphaned upload;
/// * a mid-distribution or post-append crash commits the batch — the
///   laggard peers converge from the most-advanced durable log;
/// * the cluster serves normal traffic afterwards, and the whole run
///   replays byte-identically for the same seed (`EonDb::pinned_batch`
///   holds the commit lock while sequenced arrivals park, and releases
///   it when the planned membership has, so the leader drains exactly
///   that).
pub fn crash_schedule_group_commit(seed: u64) -> Result<GroupCommitRunReport, String> {
    const WRITERS: usize = 4;
    let armed = GROUP_SITES[(seed % GROUP_SITES.len() as u64) as usize];
    let registry = Registry::new();
    let s3 = Arc::new(S3SimFs::with_metrics(
        S3Config {
            seed,
            ..S3Config::instant()
        },
        &registry,
    ));
    let faults = FaultPlan::inert();
    let config = EonConfig::new(NODES, NODES)
        .faults(faults.clone())
        .observability(registry.clone())
        .exec_slots(1);
    let db = EonDb::create(s3.clone(), config).map_err(|e| format!("create: {e}"))?;
    let s = schema![("id", Int), ("v", Int)];
    db.create_table(
        "t",
        s.clone(),
        vec![Projection::super_projection("p", &s, &[0], &[0])],
    )
    .map_err(|e| format!("create_table: {e}"))?;

    let mut model = TableModel::new("t");
    let base = int_rows(0..200);
    db.copy_into("t", base.clone())
        .map_err(|e| format!("base copy: {e}"))?;
    model.rows.extend(base);

    // Arm the crash only now: bootstrap committed as batches of one,
    // and `rearm` resets the occurrence counters, so occurrence 0 of
    // the armed site is the batch's.
    let v0 = db.version();
    faults.rearm(armed, 0, None);

    // Pinned batch: batch composition (and upload order) is the plan's,
    // not the scheduler's.
    let batch_rows: Vec<Vec<Value>> = (0..WRITERS)
        .map(|i| vec![Value::Int(10_000 + i as i64), Value::Int(1)])
        .collect();
    let outcomes: Vec<eon_types::Result<u64>> =
        db.pinned_batch(WRITERS, |i| db.copy_into("t", vec![batch_rows[i].clone()]));
    for (i, o) in outcomes.iter().enumerate() {
        match o {
            Err(EonError::FaultInjected(_)) => {}
            other => {
                return Err(format!(
                    "site {armed}: writer {i} expected a crash, got {other:?}"
                ))
            }
        }
    }

    // The leader process died: every in-memory catalog is gone. Each
    // node recovers from its local durable log alone, laggards replay
    // the most-advanced log's tail.
    let tip = db
        .cold_restart_all()
        .map_err(|e| format!("site {armed}: cold restart: {e}"))?;
    let expect_durable = armed != site::COMMIT_LEADER_APPEND;
    let batch_durable = tip.0 == v0.0 + WRITERS as u64;
    if batch_durable != expect_durable {
        return Err(format!(
            "site {armed}: batch durable={batch_durable}, expected {expect_durable} (v0 {} tip {})",
            v0.0, tip.0
        ));
    }
    // Prefix-or-nothing on every node: the whole batch or none of it,
    // never a partial suffix of members missing.
    let want = if expect_durable { WRITERS } else { 0 };
    for node in db.membership().up_nodes() {
        let got = node
            .store
            .read_records_after(v0)
            .map_err(|e| format!("read_records_after: {e}"))?
            .len();
        if got != want {
            return Err(format!(
                "site {armed}: {} holds {got} batch records durably, want {want}",
                node.id
            ));
        }
    }
    if expect_durable {
        model.rows.extend(batch_rows.iter().cloned());
    }

    // Normal service resumes: a lone statement is a batch of one.
    let extra = int_rows(200..260);
    db.copy_into("t", extra.clone())
        .map_err(|e| format!("site {armed}: post-crash copy: {e}"))?;
    model.rows.extend(extra);

    // Invariants: committed data answers exactly; an aborted batch's
    // uploads are crash orphans the leak scan must reclaim (the abort
    // path deliberately leaves them — the "process died").
    let report = check_crash_invariants(&db, std::slice::from_ref(&model))
        .map_err(|e| format!("site {armed}: invariants: {e}"))?;
    let reclaimed = report.reclaimed.len();
    if !expect_durable && reclaimed < WRITERS {
        return Err(format!(
            "site {armed}: aborted batch left only {reclaimed} reclaimable orphans, want >= {WRITERS}"
        ));
    }

    let rows = scan_sorted(&db)?;
    let mut keys = db
        .shared()
        .list("data/")
        .map_err(|e| format!("list: {e}"))?;
    keys.sort();
    let mut h = DefaultHasher::new();
    armed.hash(&mut h);
    format!("{rows:?}").hash(&mut h);
    keys.hash(&mut h);
    Ok(GroupCommitRunReport {
        site: armed.to_owned(),
        batch_durable,
        reclaimed,
        rows: rows.len(),
        digest: h.finish(),
        metrics: registry.deterministic_snapshot().to_string(),
    })
}

/// Run the full crash schedule with `plan` armed. Returns the report
/// if every step completed and every invariant held, else a
/// description of the first violation.
pub fn crash_schedule(
    plan: FaultInjector,
    s3_seed: u64,
    ambiguous: bool,
) -> Result<CrashRunReport, String> {
    crash_schedule_encoded(plan, s3_seed, ambiguous, None)
}

/// [`crash_schedule`] with every container force-encoded as `force`
/// (compression-aware execution under crashes): the schedule's scans
/// then run on RLE runs or dictionary codes rather than decoded rows,
/// and determinism must hold anyway — same seed, same force ⇒ same
/// fired sites, digest, and metrics snapshot.
pub fn crash_schedule_encoded(
    plan: FaultInjector,
    s3_seed: u64,
    ambiguous: bool,
    force: Option<eon_columnar::Encoding>,
) -> Result<CrashRunReport, String> {
    let registry = Registry::new();
    let s3 = Arc::new(S3SimFs::with_metrics(
        S3Config {
            ambiguous_rate: if ambiguous { AMBIGUOUS_RATE } else { 0.0 },
            seed: s3_seed,
            ..S3Config::instant()
        },
        &registry,
    ));
    let config = EonConfig::new(NODES, NODES)
        .faults(plan.clone())
        .force_encoding(force)
        .observability(registry.clone());
    // No fault site precedes the first commit, so creation cannot crash.
    let db = EonDb::create(s3.clone(), config.clone()).map_err(|e| format!("create: {e}"))?;
    let s = schema![("id", Int), ("v", Int)];
    db.create_table(
        "t",
        s.clone(),
        vec![Projection::super_projection("p", &s, &[0], &[0])],
    )
    .map_err(|e| format!("create_table: {e}"))?;

    let mut model = TableModel::new("t");
    let mut crashes = 0usize;
    let mut reclaimed = 0usize;

    // Two loads: exercises load.pre_upload / load.upload /
    // load.pre_commit, the second against a non-empty table.
    for batch in [int_rows(0..600), int_rows(600..1200)] {
        step(&db, &mut crashes, "copy", |db| {
            db.copy_into("t", batch.clone()).map(|_| ())
        })?;
        model.rows.extend(batch);
    }

    // Parallel scan: the query.worker.local site kills a participant
    // mid-query; failover must still return the exact answer.
    let got = scan_sorted(&db)?;
    let mut want = model.rows.clone();
    want.sort();
    if got != want {
        return Err(format!(
            "mid-schedule scan inexact: got {} rows, want {}",
            got.len(),
            want.len()
        ));
    }

    // DML: delete vectors via dml.upload / dml.pre_commit.
    step(&db, &mut crashes, "delete", |db| {
        db.delete_where("t", &Predicate::cmp(0, CmpOp::Lt, 200i64))
            .map(|_| ())
    })?;
    model.rows.retain(|r| !matches!(r[0], Value::Int(i) if i < 200));

    // Mergeout rewrites containers (mergeout.pre_write / pre_commit)
    // and parks the replaced files with the reaper.
    step(&db, &mut crashes, "mergeout", |db| {
        db.run_mergeout().map(|_| ())
    })?;

    // Metadata sync: checkpoints (catalog.ckpt.pre_write), per-node
    // uploads (catalog.sync.*), and cluster_info (sync.pre_info_write).
    step(&db, &mut crashes, "sync", |db| {
        db.sync_metadata(1_000).map(|_| ())
    })?;

    // One more load after the sync so revive has to recover past the
    // last checkpoint from the txn-log tail.
    let batch = int_rows(1200..1500);
    step(&db, &mut crashes, "copy", |db| {
        db.copy_into("t", batch.clone()).map(|_| ())
    })?;
    model.rows.extend(batch);

    // Unconditional full restart: whatever crashed above, every node
    // now recovers from disk + shared storage under a fresh instance.
    restart_all(&db, &mut crashes)?;

    // Final sync so the consensus truncation covers every commit —
    // revive must lose nothing.
    step(&db, &mut crashes, "final sync", |db| {
        db.sync_metadata(2_000).map(|_| ())
    })?;

    let report = check_crash_invariants(&db, std::slice::from_ref(&model))
        .map_err(|e| format!("post-restart invariants: {e}"))?;
    reclaimed += report.reclaimed.len();

    // Cluster death and §3.5 revive: drop the old cluster, wait out
    // the lease, and bring the database back from shared storage
    // alone. The revive sites crash after the lease check and before
    // the new cluster_info write; both leave shared storage revivable.
    drop(db);
    let revive_now = 5_000_000;
    let db = match EonDb::revive(s3.clone(), config.clone(), revive_now) {
        Ok(db) => db,
        Err(EonError::FaultInjected(_)) => {
            crashes += 1;
            EonDb::revive(s3.clone(), config.clone(), revive_now)
                .map_err(|e| format!("revive retry: {e}"))?
        }
        Err(e) => return Err(format!("revive: {e}")),
    };

    let report = check_crash_invariants(&db, std::slice::from_ref(&model))
        .map_err(|e| format!("post-revive invariants: {e}"))?;
    reclaimed += report.reclaimed.len();

    // Determinism fingerprint: what crashed, what the table holds, and
    // which objects survived on shared storage.
    let fired: Vec<String> = plan.fired().into_iter().map(|e| e.site).collect();
    let rows = scan_sorted(&db)?;
    let mut keys = db
        .shared()
        .list("data/")
        .map_err(|e| format!("list: {e}"))?;
    keys.sort();
    let mut h = DefaultHasher::new();
    fired.hash(&mut h);
    format!("{rows:?}").hash(&mut h);
    keys.hash(&mut h);

    Ok(CrashRunReport {
        fired,
        crashes,
        reclaimed,
        rows: rows.len(),
        digest: h.finish(),
        metrics: registry.deterministic_snapshot().to_string(),
    })
}
