//! Equivalence, atomicity, and rollback tests for the parallel write
//! pipeline (DESIGN.md "Write pipeline").
//!
//! The write pool is performance machinery: fanning (projection, shard)
//! upload jobs across workers must never change what a load *commits*.
//! These tests pin the contract:
//!
//! * a property test drives the same seeded COPY/DELETE/UPDATE/mergeout
//!   workload through a one-slot pool and an eight-slot one and requires
//!   byte-identical committed catalog state — storage keys included —
//!   plus identical query answers;
//! * armed `LOAD_UPLOAD` / `LOAD_PRE_COMMIT` crashes must leave no
//!   committed trace, the retry must run clean, and a post-restart leak
//!   scan must reclaim the orphaned uploads;
//! * UPDATE is one transaction: a crash at any of its fault sites
//!   leaves the table byte-identical to before, and a concurrent reader
//!   during a successful UPDATE only ever sees the old state or the new
//!   state, never the deleted-but-not-reinserted middle;
//! * statements that fail for ordinary (non-crash) reasons register
//!   every upload that may have reached shared storage with the reaper
//!   — COPY containers and DELETE's delete vectors both;
//! * a reap pass whose S3 DELETEs fail — including ambiguous
//!   applied-but-reported-failed outcomes — re-registers what it could
//!   not confirm instead of leaking it;
//! * loads race mergeout and reap without losing a row.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use bytes::Bytes;
use eon_columnar::pruning::CmpOp;
use eon_columnar::{Predicate, Projection};
use eon_core::{check_crash_invariants, EonConfig, EonDb, TableModel};
use eon_db as _;
use eon_exec::{AggSpec, Expr, Plan, ScanSpec, SortKey};
use eon_obs::Registry;
use eon_storage::fault::{site, FaultPlan};
use eon_storage::{FileSystem, FsStats, MemFs};
use eon_types::{schema, EonError, NodeId, Result, Value};
use proptest::prelude::*;
use rand::{Rng, SeedableRng, StdRng};

fn gen_rows(seed: u64, n: usize) -> Vec<Vec<Value>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            vec![
                Value::Int(i as i64),
                Value::Int(rng.gen_range(0..7i64)),
                Value::Int(rng.gen_range(0..1000i64)),
            ]
        })
        .collect()
}

fn make_table(db: &EonDb) {
    let s = schema![("id", Int), ("grp", Int), ("val", Int)];
    db.create_table(
        "t",
        s.clone(),
        vec![Projection::super_projection("p", &s, &[0], &[0])],
    )
    .unwrap();
}

/// The write pool is as wide as the coordinator's execution-slot
/// budget: one slot is the one-worker reference, eight the wide side.
fn cfg(nodes: usize, shards: usize, slots: usize) -> EonConfig {
    EonConfig::new(nodes, shards).exec_slots(slots)
}

/// Committed write-path state, storage keys included: the wide pool
/// must reproduce the one-worker run byte for byte (DESIGN.md "Write
/// pipeline" determinism rule).
fn fingerprint(db: &EonDb) -> Vec<String> {
    let snap = db.snapshot().unwrap();
    let mut out: Vec<String> = snap
        .containers
        .values()
        .map(|c| {
            format!(
                "c:{}:{}:{}:{}:{}:{}",
                c.oid.0, c.key, c.projection.0, c.shard, c.rows, c.size_bytes
            )
        })
        .chain(snap.delete_vectors.values().map(|d| {
            format!("d:{}:{}:{}:{}", d.oid.0, d.key, d.container.0, d.deleted_rows)
        }))
        .collect();
    out.sort();
    out
}

fn sorted_rows(db: &EonDb) -> Vec<Vec<Value>> {
    let plan = Plan::scan(ScanSpec::new("t")).sort(vec![
        SortKey::asc(0),
        SortKey::asc(1),
        SortKey::asc(2),
    ]);
    db.query(&plan).unwrap()
}

fn count_and_sum(db: &EonDb) -> (i64, i64) {
    let plan = Plan::scan(ScanSpec::new("t"))
        .aggregate(vec![], vec![AggSpec::count_star(), AggSpec::sum(Expr::col(2))]);
    let row = &db.query(&plan).unwrap()[0];
    // SUM over an empty table is NULL; report it as 0.
    (row[0].as_int().unwrap(), row[1].as_int().unwrap_or(0))
}

proptest! {
    /// One-slot and wide write pools must commit identical state — keys,
    /// OIDs, stats — and identical answers, through COPY batches, a
    /// DELETE, an atomic UPDATE, and a mergeout pass.
    #[test]
    fn parallel_load_commits_identical_state(seed in 0u64..1_000_000, n in 90usize..300) {
        let serial = EonDb::create(Arc::new(MemFs::new()), cfg(4, 4, 1)).unwrap();
        let wide = EonDb::create(Arc::new(MemFs::new()), cfg(4, 4, 8)).unwrap();
        let rows = gen_rows(seed, n);
        for db in [&serial, &wide] {
            make_table(db);
            for chunk in rows.chunks(n.div_ceil(3).max(1)) {
                db.copy_into("t", chunk.to_vec()).unwrap();
            }
            db.delete_where("t", &Predicate::cmp(0, CmpOp::Lt, (n / 6) as i64)).unwrap();
            db.update_where(
                "t",
                &Predicate::cmp(0, CmpOp::Ge, (5 * n / 6) as i64),
                &[(2, Value::Int(4242))],
            ).unwrap();
        }
        prop_assert_eq!(fingerprint(&serial), fingerprint(&wide));
        prop_assert_eq!(sorted_rows(&serial), sorted_rows(&wide));

        // Mergeout rewrites containers through the same write path.
        serial.run_mergeout().unwrap();
        wide.run_mergeout().unwrap();
        prop_assert_eq!(fingerprint(&serial), fingerprint(&wide));
        prop_assert_eq!(sorted_rows(&serial), sorted_rows(&wide));
    }
}

/// An armed crash in the upload fan-out or just before the commit must
/// leave no committed trace; the retry (the plan is one-shot) runs
/// clean, and after cycling the nodes the leak scan reclaims every
/// orphaned upload.
#[test]
fn armed_load_crash_leaves_no_committed_trace() {
    for s in [site::LOAD_UPLOAD, site::LOAD_PRE_COMMIT] {
        let db = EonDb::create(
            Arc::new(MemFs::new()),
            cfg(3, 3, 4).faults(FaultPlan::at(s, 0)),
        )
        .unwrap();
        make_table(&db);
        let rows = gen_rows(7, 200);

        let err = db.copy_into("t", rows.clone()).unwrap_err();
        assert!(matches!(err, EonError::FaultInjected(_)), "site {s}: {err}");
        assert_eq!(count_and_sum(&db).0, 0, "site {s}: uncommitted rows visible");
        assert!(
            db.snapshot().unwrap().containers.is_empty(),
            "site {s}: containers committed despite crash"
        );

        // Retry runs clean and commits everything.
        assert_eq!(db.copy_into("t", rows.clone()).unwrap(), 200);
        let model = TableModel {
            name: "t".into(),
            rows: rows.clone(),
        };

        // Fresh instance ids make the crashed attempt's uploads stop
        // looking like live in-flight work; the leak scan then owns
        // them (§6.5). LOAD_PRE_COMMIT orphans every staged container.
        for id in 0..3u64 {
            db.kill_node(NodeId(id)).unwrap();
            db.restart_node(NodeId(id)).unwrap();
        }
        let report = check_crash_invariants(&db, &[model]).unwrap();
        if s == site::LOAD_PRE_COMMIT {
            assert!(
                !report.reclaimed.is_empty(),
                "pre-commit crash must orphan uploads for the leak scan"
            );
        }
    }
}

/// Batched commits under armed crash points (DESIGN.md "Group
/// commit"): a full batch of sequenced writers parks in the
/// accumulator and the leader "dies" at the leader-append,
/// mid-distribution, or post-append point. Every member observes the
/// crash; after a cold restart (all in-memory state lost, durable
/// logs survive) batch durability must be prefix-or-nothing — the
/// whole batch on every node's log, or none of it, never a gap — and
/// an aborted batch's uploads must be reclaimable crash orphans.
#[test]
fn batched_commit_crash_is_prefix_or_nothing() {
    const WRITERS: usize = 3;
    for s in [
        site::COMMIT_LEADER_APPEND,
        site::COMMIT_MID_DISTRIBUTION,
        site::COMMIT_POST_APPEND,
    ] {
        let faults = FaultPlan::inert();
        let db = EonDb::create(Arc::new(MemFs::new()), cfg(3, 3, 1).faults(faults.clone()))
            .unwrap();
        make_table(&db);
        let base = gen_rows(3, 90);
        db.copy_into("t", base.clone()).unwrap();
        let v0 = db.version();

        // Quiet bootstrap done: arm the crash and park a full batch
        // behind the held commit lock.
        faults.rearm(s, 0, None);
        let batch_row =
            |i: usize| vec![Value::Int(1_000 + i as i64), Value::Int(0), Value::Int(0)];
        let outcomes: Vec<Result<u64>> =
            db.pinned_batch(WRITERS, |i| db.copy_into("t", vec![batch_row(i)]));
        for (i, o) in outcomes.iter().enumerate() {
            assert!(
                matches!(o, Err(EonError::FaultInjected(_))),
                "site {s}: writer {i} should observe the leader's crash: {o:?}"
            );
        }

        // The leader's death loses every in-memory catalog at once:
        // recover from the durable logs alone.
        db.cold_restart_all().unwrap();
        let durable = s != site::COMMIT_LEADER_APPEND;
        let want = if durable { WRITERS } else { 0 };
        for node in db.membership().up_nodes() {
            assert_eq!(
                node.store.read_records_after(v0).unwrap().len(),
                want,
                "site {s}: {} batch records on {} (prefix-or-nothing violated)",
                want,
                node.id
            );
        }

        let mut model = TableModel {
            name: "t".into(),
            rows: base,
        };
        if durable {
            model.rows.extend((0..WRITERS).map(batch_row));
        }
        let report = check_crash_invariants(&db, &[model]).unwrap();
        if !durable {
            assert!(
                report.reclaimed.len() >= WRITERS,
                "site {s}: aborted members' uploads not reclaimed: {:?}",
                report.reclaimed
            );
        }
    }
}

/// The same sequenced batch schedule commits byte-identical state —
/// storage keys included — run to run: batch composition is pinned by
/// the held commit lock and the arrival gate, so group commit adds no
/// nondeterminism to the write pipeline.
#[test]
fn batched_commit_replays_byte_identically() {
    let run = || {
        let db = EonDb::create(Arc::new(MemFs::new()), cfg(3, 3, 1)).unwrap();
        make_table(&db);
        db.copy_into("t", gen_rows(11, 60)).unwrap();
        db.pinned_batch(4, |i| {
            let row = vec![Value::Int(2_000 + i as i64), Value::Int(1), Value::Int(2)];
            db.copy_into("t", vec![row]).unwrap()
        });
        (fingerprint(&db), sorted_rows(&db))
    };
    assert_eq!(run(), run());
}

/// UPDATE atomicity under crashes: arm each fault site the statement
/// passes — DV upload, container upload, pre-commit — and require the
/// table to be byte-identical to before the UPDATE, then a clean retry.
#[test]
fn update_crash_exposes_no_intermediate_state() {
    let rows = gen_rows(21, 240);
    let pred = Predicate::cmp(0, CmpOp::Lt, 120i64);
    let set: &[(usize, Value)] = &[(2, Value::Int(9999))];

    // Probe run with inert faults: count how often each site fires
    // during setup, so the armed run crashes inside the UPDATE itself
    // rather than during the setup load.
    let probe = EonDb::create(Arc::new(MemFs::new()), cfg(3, 3, 4)).unwrap();
    make_table(&probe);
    probe.copy_into("t", rows.clone()).unwrap();
    let setup_counts = probe.config().faults.site_counts();

    for s in [site::DML_UPLOAD, site::LOAD_UPLOAD, site::DML_PRE_COMMIT] {
        let nth = setup_counts.get(s).copied().unwrap_or(0);
        let db = EonDb::create(
            Arc::new(MemFs::new()),
            cfg(3, 3, 4).faults(FaultPlan::at(s, nth)),
        )
        .unwrap();
        make_table(&db);
        db.copy_into("t", rows.clone()).unwrap();
        let before = sorted_rows(&db);
        let fp_before = fingerprint(&db);

        let err = db.update_where("t", &pred, set).unwrap_err();
        assert!(matches!(err, EonError::FaultInjected(_)), "site {s}: {err}");
        assert_eq!(
            sorted_rows(&db),
            before,
            "site {s}: crash exposed intermediate UPDATE state"
        );
        assert_eq!(
            fingerprint(&db),
            fp_before,
            "site {s}: crash left committed catalog changes"
        );

        // One-shot plan: the retry is a plain re-execution.
        assert_eq!(db.update_where("t", &pred, set).unwrap(), 120);
        let after = sorted_rows(&db);
        assert_eq!(after.len(), 240);
        assert!(after
            .iter()
            .all(|r| r[0].as_int().unwrap() >= 120 || r[2] == Value::Int(9999)));
    }
}

/// During a *successful* UPDATE, a concurrent reader must only ever see
/// the old table or the new table: the row count never dips (no
/// deleted-but-not-reinserted window) and the aggregate is always one
/// of exactly two values.
#[test]
fn concurrent_reader_sees_update_atomically() {
    let db = EonDb::create(Arc::new(MemFs::new()), cfg(3, 3, 4)).unwrap();
    make_table(&db);
    let rows = gen_rows(33, 300);
    db.copy_into("t", rows).unwrap();
    let old = count_and_sum(&db);

    let done = AtomicBool::new(false);
    let observed = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while !done.load(Ordering::Relaxed) {
                observed.lock().unwrap().push(count_and_sum(&db));
            }
        });
        db.update_where(
            "t",
            &Predicate::cmp(1, CmpOp::Le, 3i64),
            &[(2, Value::Int(0))],
        )
        .unwrap();
        done.store(true, Ordering::Relaxed);
    });
    let new = count_and_sum(&db);
    assert_ne!(old, new, "update should change the aggregate");
    for (i, obs) in observed.lock().unwrap().iter().enumerate() {
        assert!(
            *obs == old || *obs == new,
            "reader {i} saw intermediate state {obs:?} (old {old:?}, new {new:?})"
        );
    }
}

/// A shared filesystem whose writes and deletes can be told to fail
/// with a *non-transient* error (so the §5.3 retry loop does not mask
/// the failure), optionally applying the operation first — the
/// ambiguous applied-but-reported-failed S3 outcome.
struct FlakyFs {
    inner: MemFs,
    /// `u64::MAX` = disarmed; otherwise the number of further `data/`
    /// writes allowed before every subsequent one fails.
    data_writes_allowed: AtomicU64,
    fail_deletes: AtomicBool,
    /// When failing, apply the operation before reporting the error.
    apply_before_fail: AtomicBool,
}

impl FlakyFs {
    fn new() -> Self {
        FlakyFs {
            inner: MemFs::new(),
            data_writes_allowed: AtomicU64::new(u64::MAX),
            fail_deletes: AtomicBool::new(false),
            apply_before_fail: AtomicBool::new(false),
        }
    }
}

impl FileSystem for FlakyFs {
    fn write(&self, path: &str, data: Bytes) -> Result<()> {
        if path.starts_with("data/") {
            let allowed = self.data_writes_allowed.load(Ordering::SeqCst);
            if allowed != u64::MAX {
                if allowed == 0 {
                    if self.apply_before_fail.load(Ordering::SeqCst) {
                        self.inner.write(path, data)?;
                    }
                    return Err(EonError::Internal(format!("injected PUT failure: {path}")));
                }
                self.data_writes_allowed.fetch_sub(1, Ordering::SeqCst);
            }
        }
        self.inner.write(path, data)
    }
    fn read(&self, path: &str) -> Result<Bytes> {
        self.inner.read(path)
    }
    fn size(&self, path: &str) -> Result<u64> {
        self.inner.size(path)
    }
    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        self.inner.list(prefix)
    }
    fn delete(&self, path: &str) -> Result<()> {
        if self.fail_deletes.load(Ordering::SeqCst) {
            if self.apply_before_fail.load(Ordering::SeqCst) {
                self.inner.delete(path)?;
            }
            return Err(EonError::Internal(format!(
                "injected DELETE failure: {path}"
            )));
        }
        self.inner.delete(path)
    }
    fn stats(&self) -> FsStats {
        self.inner.stats()
    }}

/// A COPY that fails partway through its upload fan-out (an ordinary
/// storage error, not a crash) must roll back by registering every key
/// that may have reached shared storage with the reaper — and a reap
/// pass then deletes them all.
#[test]
fn failed_load_registers_uploads_with_reaper() {
    let fs = Arc::new(FlakyFs::new());
    let registry = Registry::new();
    let db = EonDb::create(
        fs.clone(),
        cfg(3, 4, 1).observability(registry.clone()),
    )
    .unwrap();
    make_table(&db);
    db.copy_into("t", gen_rows(5, 120)).unwrap();
    let committed = sorted_rows(&db);
    assert!(db.reaper_pending_keys().is_empty());

    // One-slot pool: the first upload job lands on shared storage, the
    // second fails with a non-transient error.
    fs.data_writes_allowed.store(1, Ordering::SeqCst);
    let err = db.copy_into("t", gen_rows(6, 160)).unwrap_err();
    assert!(matches!(err, EonError::Internal(_)), "{err}");
    fs.data_writes_allowed.store(u64::MAX, Ordering::SeqCst);

    assert_eq!(sorted_rows(&db), committed, "failed load changed the table");
    let pending = db.reaper_pending_keys();
    assert!(
        pending.len() >= 2,
        "both the landed and the attempted upload must be registered: {pending:?}"
    );
    assert!(pending.iter().all(|k| k.starts_with("data/")));
    // At least one of the registered keys actually exists (the job that
    // completed before the failure).
    assert!(pending.iter().any(|k| fs.inner.read(k).is_ok()));

    // `TxnVersion::ZERO` registration means no retention condition can
    // hold them back: one reap pass deletes every orphan.
    db.sync_metadata(1_000).unwrap();
    let deleted = db.reap_files().unwrap();
    for k in &pending {
        assert!(deleted.contains(k), "{k} not reaped");
        assert!(fs.inner.read(k).is_err(), "{k} still on shared storage");
    }
    assert!(db.reaper_pending_keys().is_empty());
    assert_eq!(sorted_rows(&db), committed);
}

/// DELETE's delete-vector uploads take the same rollback path: a failed
/// DV PUT aborts the statement, tombstones nothing, and parks the
/// attempted key with the reaper.
#[test]
fn failed_delete_registers_dv_uploads_with_reaper() {
    let fs = Arc::new(FlakyFs::new());
    let db = EonDb::create(fs.clone(), cfg(3, 4, 1)).unwrap();
    make_table(&db);
    db.copy_into("t", gen_rows(9, 200)).unwrap();
    let committed = sorted_rows(&db);

    fs.data_writes_allowed.store(0, Ordering::SeqCst);
    let err = db
        .delete_where("t", &Predicate::cmp(0, CmpOp::Lt, 100i64))
        .unwrap_err();
    assert!(matches!(err, EonError::Internal(_)), "{err}");
    fs.data_writes_allowed.store(u64::MAX, Ordering::SeqCst);

    assert_eq!(sorted_rows(&db), committed, "failed DELETE tombstoned rows");
    let pending = db.reaper_pending_keys();
    assert!(
        !pending.is_empty() && pending.iter().all(|k| k.ends_with(".dv")),
        "attempted DV keys must be registered: {pending:?}"
    );

    db.sync_metadata(1_000).unwrap();
    db.reap_files().unwrap();
    assert!(db.reaper_pending_keys().is_empty());
    // The statement retries clean afterwards.
    assert_eq!(
        db.delete_where("t", &Predicate::cmp(0, CmpOp::Lt, 100i64)).unwrap(),
        100
    );
}

/// A reap pass whose S3 DELETEs fail re-registers the undeleted entries
/// instead of leaking them — for plain failures and for ambiguous
/// outcomes where the delete applied but the response was lost.
#[test]
fn failed_reap_reinstates_pending_entries() {
    let fs = Arc::new(FlakyFs::new());
    let registry = Registry::new();
    let db = EonDb::create(
        fs.clone(),
        cfg(3, 3, 8).observability(registry.clone()),
    )
    .unwrap();
    make_table(&db);
    for b in 0..6u64 {
        db.copy_into("t", gen_rows(b, 150)).unwrap();
    }
    let rows_before = sorted_rows(&db);
    db.run_mergeout().unwrap();
    let pending_before = {
        let mut p = db.reaper_pending_keys();
        p.sort();
        p
    };
    assert!(!pending_before.is_empty(), "mergeout should strand old containers");
    db.sync_metadata(1_000).unwrap();

    // Plain failure: nothing deleted, everything re-registered.
    fs.fail_deletes.store(true, Ordering::SeqCst);
    assert!(db.reap_files().is_err());
    let mut pending_after = db.reaper_pending_keys();
    pending_after.sort();
    assert_eq!(
        pending_before, pending_after,
        "failed reap must re-register every undeleted entry"
    );
    for k in &pending_after {
        assert!(fs.inner.read(k).is_ok(), "{k} deleted despite reported failure");
    }
    let reinstated = registry
        .snapshot()
        .get("reaper_reinstated_total{subsystem=\"reaper\"}")
        .and_then(|v| v.as_u64())
        .unwrap_or(0);
    assert_eq!(reinstated as usize, pending_before.len());

    // Ambiguous outcome: the deletes *apply* but report failure. The
    // entries must still be re-registered — and the retry pass is a
    // harmless no-op because deleting a missing object is not an error.
    fs.apply_before_fail.store(true, Ordering::SeqCst);
    assert!(db.reap_files().is_err());
    let mut pending_ambiguous = db.reaper_pending_keys();
    pending_ambiguous.sort();
    assert_eq!(pending_before, pending_ambiguous);

    fs.fail_deletes.store(false, Ordering::SeqCst);
    fs.apply_before_fail.store(false, Ordering::SeqCst);
    let deleted = db.reap_files().unwrap();
    assert_eq!(deleted.len(), pending_before.len());
    assert!(db.reaper_pending_keys().is_empty());
    assert_eq!(sorted_rows(&db), rows_before, "reap touched live data");
}

/// Parallel loads racing mergeout and reap: every committed row
/// survives, and the crash-consistency invariants (exactness, no
/// dangling references, no leaks) hold at the end.
#[test]
fn concurrent_loads_mergeout_and_reap_lose_nothing() {
    const LOADERS: usize = 3;
    const BATCHES: usize = 4;
    const PER: usize = 120;
    let db = EonDb::create(Arc::new(MemFs::new()), cfg(4, 4, 8)).unwrap();
    make_table(&db);

    std::thread::scope(|scope| {
        for l in 0..LOADERS {
            let db = &db;
            scope.spawn(move || {
                for b in 0..BATCHES {
                    let rows = gen_rows((l * BATCHES + b) as u64, PER);
                    loop {
                        match db.copy_into("t", rows.clone()) {
                            Ok(_) => break,
                            // OCC loser under a concurrent mergeout
                            // commit: re-execute like a client would.
                            Err(EonError::WriteConflict(_)) => continue,
                            Err(e) => panic!("loader {l} batch {b}: {e}"),
                        }
                    }
                }
            });
        }
        let db = &db;
        scope.spawn(move || {
            for i in 0..6 {
                let _ = db.run_mergeout();
                let _ = db.sync_metadata(1_000 + i);
                let _ = db.reap_files();
            }
        });
    });

    let mut model = TableModel::new("t");
    for l in 0..LOADERS {
        for b in 0..BATCHES {
            model.rows.extend(gen_rows((l * BATCHES + b) as u64, PER));
        }
    }
    assert_eq!(count_and_sum(&db).0 as usize, LOADERS * BATCHES * PER);
    // Final quiesced mergeout + reap, then the full invariant check.
    db.run_mergeout().unwrap();
    db.sync_metadata(10_000).unwrap();
    db.reap_files().unwrap();
    check_crash_invariants(&db, &[model]).unwrap();
}
