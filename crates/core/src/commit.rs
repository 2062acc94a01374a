//! The cluster commit protocol (DESIGN.md "Group commit"). There is
//! one: every statement's commit — COPY, DML, DDL, mergeout, the
//! bootstrap transactions — parks in the accumulator and is committed
//! as a member of a batch, and a lone statement is a batch of one.
//!
//! Every statement serializes on the global commit lock, and each commit
//! pays a durable log append and a distribution round-trip to every up
//! node; a batch shares both among the statements queued behind one
//! lock holder. No benchmark workload forms a batch larger than one
//! (DESIGN.md "Group commit"), so batches of more are driven by tests.
//!
//! The first arrival becomes the **batch leader** and waits for the
//! commit lock; whoever arrives while it waits parks its validated
//! [`Txn`] as a follower and wakes with its own [`TxnRecord`] or its own
//! typed error. There is no timer and no size cap: a batch is the set of
//! arrivals behind the lock, so a statement with nobody beside it is a
//! batch of one and a burst behind a long commit shares one append. Once
//! it holds the lock the leader takes the queue and, in that one pass:
//!
//! 1. per statement, in arrival order: re-validates its §4.5 writer
//!    subscriptions against the *current* snapshot and OCC-commits it
//!    (§6.3) on the batch coordinator — one stale writer or write
//!    conflict fails *that* statement, never the batch;
//! 2. applies the committed records to every other up node's in-memory
//!    catalog in one pass ([`eon_catalog::Catalog::apply_committed_batch`],
//!    one copy-on-write clone per node per batch instead of per record)
//!    — §3.2's eager metadata redistribution; down nodes miss records
//!    and repair via re-subscription (§3.3);
//! 3. appends all records as **one** log file on the coordinator (the
//!    §3.5 durability point — a single atomic write, so a crash durably
//!    commits the whole batch or nothing, never a gap), then distributes
//!    the same single append to every peer;
//! 4. hands each statement's dropped keys whose catalog reference count
//!    reached zero to the §6.5 reaper.
//!
//! Determinism rule: batch *composition* under seeded scheduling is
//! pinned by the harness through [`EonDb::pinned_batch`], which holds
//! the commit lock while sequenced arrivals park and releases it when
//! the queue holds the planned batch, so the leader drains exactly the
//! planned membership and same-seed chaos runs replay byte-identically.

use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use eon_catalog::{Txn, TxnRecord};
use eon_cluster::NodeRuntime;
use eon_obs::{Counter, Histogram, Registry};
use eon_storage::fault::site;
use eon_types::{EonError, Result};

use crate::db::EonDb;
use crate::load::LoadWriters;

/// Registry handles for the commit protocol. All deterministic
/// functions of the workload and the batch composition.
pub(crate) struct CommitMetrics {
    /// Statements committed through the cluster commit protocol.
    pub(crate) statements: Arc<Counter>,
    /// Durable log-file appends on the batch coordinator — the count
    /// group commit exists to shrink (one per batch).
    pub(crate) appends: Arc<Counter>,
    /// Statements that parked as group-commit followers.
    pub(crate) group_waits: Arc<Counter>,
    /// Statements per closed batch.
    pub(crate) batch_size: Arc<Histogram>,
}

impl CommitMetrics {
    pub(crate) fn register(registry: &Registry) -> Self {
        let labels: &[(&str, &str)] = &[("subsystem", "commit")];
        CommitMetrics {
            statements: registry.counter("commit_statements_total", labels),
            appends: registry.counter("commit_appends_total", labels),
            group_waits: registry.counter("commit_group_waits_total", labels),
            batch_size: registry.histogram(
                "commit_batch_size",
                labels,
                vec![1, 2, 4, 8, 16, 32],
                eon_obs::Determinism::Seeded,
            ),
        }
    }
}

/// Where a parked statement's outcome lands. The leader delivers each
/// member's own record or typed error; the member blocks on `done`.
struct CommitSlot {
    result: Mutex<Option<Result<TxnRecord>>>,
    done: Condvar,
}

impl CommitSlot {
    fn new() -> Arc<CommitSlot> {
        Arc::new(CommitSlot {
            result: Mutex::new(None),
            done: Condvar::new(),
        })
    }

    fn deliver(&self, r: Result<TxnRecord>) {
        *self.result.lock() = Some(r);
        self.done.notify_all();
    }

    fn wait(&self) -> Result<TxnRecord> {
        let mut g = self.result.lock();
        while g.is_none() {
            self.done.wait(&mut g);
        }
        g.take().expect("checked above")
    }
}

/// A statement parked in the accumulator.
struct Pending {
    txn: Txn,
    coord: Arc<NodeRuntime>,
    /// Present for staged writes (COPY / UPDATE): the §4.5 writer set
    /// to re-validate under the lock. `None` for plain catalog commits.
    writers: Option<LoadWriters>,
    slot: Arc<CommitSlot>,
}

#[derive(Default)]
struct GroupInner {
    queue: Vec<Pending>,
    /// A leader is waiting for the commit lock (not yet drained its
    /// batch).
    leader_active: bool,
}

/// The group-commit accumulator hung off [`EonDb`].
#[derive(Default)]
pub(crate) struct GroupCommit {
    inner: Mutex<GroupInner>,
}

impl EonDb {
    /// Run `member(i)` for each `i < n` on its own thread, with each
    /// member's first commit landing in **one** batch. Harness hook (see
    /// the module docs): the commit lock is held, member `i` starts once
    /// `i` statements are parked, and the lock is released when all `n`
    /// are — so arrival order, key minting and batch composition are the
    /// plan's, not the scheduler's. Later commits of a member run free.
    /// Every member must commit at least once. Results in member order.
    #[doc(hidden)]
    pub fn pinned_batch<T: Send>(&self, n: usize, member: impl Fn(usize) -> T + Sync) -> Vec<T> {
        let park_until = |queued: usize| {
            while self.group_commit.inner.lock().queue.len() < queued {
                std::thread::yield_now();
            }
        };
        std::thread::scope(|scope| {
            let hold = self.commit_lock.lock();
            let handles: Vec<_> = (0..n)
                .map(|i| {
                    let (member, park_until) = (&member, &park_until);
                    scope.spawn(move || {
                        park_until(i);
                        member(i)
                    })
                })
                .collect();
            park_until(n);
            drop(hold);
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    /// Commit a catalog transaction cluster-wide.
    pub(crate) fn commit_cluster(
        &self,
        txn: Txn,
        coordinator: &Arc<NodeRuntime>,
    ) -> Result<TxnRecord> {
        self.commit_grouped(txn, coordinator.clone(), None)
    }

    /// Commit a staged write (COPY / UPDATE). The leader re-checks
    /// under the commit lock that every writer still holds its
    /// subscription; a concurrent rebalance forces a rollback (§4.5).
    pub(crate) fn commit_staged_write(
        &self,
        txn: Txn,
        coord: &Arc<NodeRuntime>,
        writers: LoadWriters,
    ) -> Result<TxnRecord> {
        self.commit_grouped(txn, coord.clone(), Some(writers))
    }

    /// Park the statement, elect the first arrival as leader, return
    /// this statement's own outcome.
    fn commit_grouped(
        &self,
        txn: Txn,
        coord: Arc<NodeRuntime>,
        writers: Option<LoadWriters>,
    ) -> Result<TxnRecord> {
        let metrics = CommitMetrics::register(&self.config.obs);
        let slot = CommitSlot::new();
        let is_leader = {
            let mut g = self.group_commit.inner.lock();
            g.queue.push(Pending {
                txn,
                coord,
                writers,
                slot: slot.clone(),
            });
            !std::mem::replace(&mut g.leader_active, true)
        };
        if !is_leader {
            metrics.group_waits.inc();
            return slot.wait();
        }
        // Leader: the batch is whoever queued while it waited for the
        // lock — itself at least.
        let _lock = self.commit_lock.lock();
        let batch = {
            let mut g = self.group_commit.inner.lock();
            g.leader_active = false;
            std::mem::take(&mut g.queue)
        };
        metrics.batch_size.observe(batch.len() as u64);
        self.run_commit_batch(batch, &metrics);
        slot.wait()
    }

    /// The leader's pass, under the commit lock. Never returns an error
    /// — every outcome, including the leader's own, is delivered through
    /// the members' slots so each statement observes *its* result.
    fn run_commit_batch(&self, batch: Vec<Pending>, metrics: &CommitMetrics) {
        // Phase 1 — commit each statement on the batch coordinator (the
        // coord of the first statement whose coord is still up), in
        // arrival order.
        // Catalogs are in lockstep so a Txn begun on any node's catalog
        // validates identically here; per-statement failures
        // (stale writer, OCC conflict) fail that statement alone.
        let mut committed: Vec<(TxnRecord, Arc<CommitSlot>)> = Vec::new();
        let mut batch_coord: Option<Arc<NodeRuntime>> = None;
        let mut dropped: Vec<(Vec<String>, eon_types::TxnVersion)> = Vec::new();
        for p in batch {
            // A coordinator that died since the statement began stopped
            // receiving commits: OCC against its catalog would validate
            // stale state and mint a version its peers already hold.
            if !p.coord.is_up() {
                let died = format!("coordinator {} died before commit", p.coord.id);
                p.slot.deliver(Err(EonError::NodeDown(died)));
                continue;
            }
            let coord = batch_coord.get_or_insert_with(|| p.coord.clone());
            let snapshot = coord.catalog.snapshot();
            if let Some(w) = &p.writers {
                if let Err(e) = self.validate_writers(&snapshot, w) {
                    p.slot.deliver(Err(e));
                    continue;
                }
            }
            let keys = Self::dropped_keys(&p.txn);
            match coord.catalog.commit(p.txn) {
                Ok(rec) => {
                    metrics.statements.inc();
                    dropped.push((keys, rec.version));
                    committed.push((rec, p.slot));
                }
                Err(e) => p.slot.deliver(Err(e)),
            }
        }
        let Some(coord) = batch_coord else {
            return;
        };
        if committed.is_empty() {
            return;
        }
        let records: Vec<TxnRecord> = committed.iter().map(|(r, _)| r.clone()).collect();

        if let Err(e) = self.distribute_batch(&coord, &records, metrics) {
            for (_, slot) in committed {
                slot.deliver(Err(e.clone()));
            }
            return;
        }

        // Reference count (§6.5) against the post-batch snapshot, per
        // statement at its own version: only keys with no remaining
        // catalog reference become deletion candidates.
        let post = coord.catalog.snapshot();
        for (keys, version) in dropped {
            let orphaned: Vec<String> = keys
                .into_iter()
                .filter(|k| {
                    !post.containers.values().any(|c| &c.key == k)
                        && !post.delete_vectors.values().any(|d| &d.key == k)
                })
                .collect();
            self.reaper.note_dropped(orphaned, version);
        }
        for (rec, slot) in committed {
            slot.deliver(Ok(rec));
        }
    }

    /// Phases 2 and 3 of the leader's pass; any error is batch-fatal.
    ///
    /// Apply, then append. Phase 2 is one in-memory apply pass per peer
    /// for the whole batch; a peer that refuses a record its
    /// coordinator accepted is §3.4 divergence and halts the cluster.
    /// Phase 3 is durability and distribution: one log file, appended
    /// first on the coordinator (the §3.5 durability point: the single
    /// atomic write is what makes the batch all-or-nothing on disk),
    /// then on every peer. A fired crash site models the leader process
    /// dying — every member observes the crash. A peer that applied in
    /// memory but cannot persist the batch (`commit.peer_append`) is
    /// just as divergent as one that refused it, never a retryable
    /// storage error: its next local recovery would silently rewind
    /// behind the cluster.
    fn distribute_batch(
        &self,
        coord: &NodeRuntime,
        records: &[TxnRecord],
        metrics: &CommitMetrics,
    ) -> Result<()> {
        let faults = &self.config.faults;
        let peers: Vec<Arc<NodeRuntime>> = self
            .membership
            .up_nodes()
            .into_iter()
            .filter(|n| n.id != coord.id)
            .collect();
        for node in &peers {
            node.catalog
                .apply_committed_batch(records)
                .map_err(|e| self.declare_divergence(node.id, &e))?;
        }
        faults.hit(site::COMMIT_LEADER_APPEND)?;
        coord.store.append_local(records)?;
        metrics.appends.inc();
        for node in &peers {
            faults.hit_node(site::COMMIT_MID_DISTRIBUTION, node.id.0)?;
            faults
                .hit_node(site::COMMIT_PEER_APPEND, node.id.0)
                .and_then(|()| node.store.append_local(records))
                .map_err(|e| self.declare_divergence(node.id, &e))?;
        }
        faults.hit(site::COMMIT_POST_APPEND)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EonConfig;
    use eon_catalog::CatalogOp;
    use eon_columnar::Projection;
    use eon_storage::fault::FaultPlan;
    use eon_storage::MemFs;
    use eon_types::{schema, NodeId, ShardId, TxnVersion, Value};

    fn db_with(config: EonConfig) -> Arc<EonDb> {
        let db = EonDb::create(Arc::new(MemFs::new()), config).unwrap();
        let s = schema![("id", Int), ("val", Int)];
        db.create_table(
            "t",
            s.clone(),
            vec![Projection::super_projection("tp", &s, &[0], &[0])],
        )
        .unwrap();
        db
    }

    /// Committed write-path state, keys included — both configurations
    /// must produce it byte for byte.
    fn fingerprint(db: &EonDb) -> Vec<String> {
        let snap = db.snapshot().unwrap();
        let mut out: Vec<String> = snap
            .containers
            .values()
            .map(|c| {
                format!(
                    "c:{}:{}:{}:{}:{}",
                    c.oid.0, c.key, c.shard, c.rows, c.size_bytes
                )
            })
            .collect();
        out.sort();
        out.push(format!("v:{}", db.version().0));
        out
    }

    #[test]
    fn grouped_copies_match_serial_state_with_fewer_appends() {
        const WRITERS: usize = 4;
        let copy = |db: &EonDb, i: usize| {
            db.copy_into("t", vec![vec![Value::Int(i as i64), Value::Int(7)]])
                .unwrap()
        };
        // Serial reference: same statements, same order, one at a time.
        let serial = db_with(EonConfig::new(3, 3));
        for i in 0..WRITERS {
            copy(&serial, i);
        }
        let grouped = db_with(EonConfig::new(3, 3));
        let metrics = CommitMetrics::register(grouped.metrics());
        // Bootstrap and DDL committed as batches of one; count from here.
        let (appends0, stmts0) = (metrics.appends.get(), metrics.statements.get());
        let (batches0, batched0) = (metrics.batch_size.count(), metrics.batch_size.sum());
        grouped.pinned_batch(WRITERS, |i| copy(&grouped, i));
        assert_eq!(fingerprint(&grouped), fingerprint(&serial));

        // The whole batch landed in one durable append: every node's
        // local log streams all four records, and the coordinator-side
        // append counter moved once for the batch.
        let batch_stmts = WRITERS as u64;
        assert_eq!(metrics.appends.get() - appends0, 1, "one append for the batch");
        assert_eq!(metrics.statements.get() - stmts0, batch_stmts);
        assert_eq!(metrics.group_waits.get(), batch_stmts - 1);
        assert_eq!(metrics.batch_size.count() - batches0, 1);
        assert_eq!(metrics.batch_size.sum() - batched0, batch_stmts);
        let pre_batch = grouped.version().0 - batch_stmts;
        for node in grouped.membership().up_nodes() {
            let recs = node
                .store
                .read_records_after(TxnVersion(pre_batch))
                .unwrap();
            assert_eq!(recs.len(), WRITERS, "node {} missing records", node.id);
        }
    }

    #[test]
    fn conflicting_member_fails_alone() {
        let db = db_with(EonConfig::new(3, 3));
        let coord = db.membership().up_nodes()[0].clone();
        let oid = coord.catalog.snapshot().table_by_name("t").unwrap().oid;
        let v0 = db.version();
        // Both members drop the same table: the first (by arrival order)
        // commits, the second must get its own WriteConflict while the
        // batch still commits.
        let results: Vec<Result<TxnRecord>> = db.pinned_batch(2, |_| {
            let mut txn = coord.catalog.begin();
            txn.push(CatalogOp::DropTable(oid));
            db.commit_cluster(txn, &coord)
        });
        assert!(results[0].is_ok(), "{:?}", results[0]);
        assert!(
            matches!(results[1], Err(EonError::WriteConflict(_))),
            "{:?}",
            results[1]
        );
        assert_eq!(db.version(), TxnVersion(v0.0 + 1));
        // The surviving record is durable everywhere.
        for node in db.membership().up_nodes() {
            assert_eq!(node.store.read_records_after(v0).unwrap().len(), 1);
        }
    }

    #[test]
    fn statement_of_a_dead_coordinator_fails_alone() {
        // A statement begins on node 2, node 2 dies, the cluster commits
        // on without it, then the statement reaches the commit: it must
        // fail typed instead of minting a version the peers already
        // hold (which would read as §3.4 divergence and halt them).
        let db = db_with(EonConfig::new(4, 3));
        let dead = db.membership().get(NodeId(2)).unwrap();
        let mut txn = dead.catalog.begin();
        txn.push(CatalogOp::SetMergeoutCoordinator {
            shard: ShardId(0),
            node: NodeId(0),
        });
        db.kill_node(NodeId(2)).unwrap();
        db.copy_into("t", vec![vec![Value::Int(1), Value::Int(1)]]).unwrap();
        let v = db.version();

        let err = db.commit_cluster(txn, &dead).unwrap_err();
        assert!(matches!(err, EonError::NodeDown(_)), "{err:?}");
        assert_eq!(db.version(), v);
        assert!(!matches!(
            db.cluster_health(),
            crate::supervisor::ClusterHealth::Down { .. }
        ));
        db.copy_into("t", vec![vec![Value::Int(2), Value::Int(2)]]).unwrap();
    }

    #[test]
    fn peer_append_failure_is_metadata_divergence() {
        // Satellite regression: a peer that applied a record in memory
        // but failed its durable append must surface §3.4 ClusterDown,
        // not a retryable storage error — and the cluster must halt.
        let faults = FaultPlan::inert();
        let db = db_with(EonConfig::new(3, 3).faults(faults.clone()));
        let coord = db.membership().get(NodeId(0)).unwrap();
        let victim = NodeId(1);
        faults.rearm(
            eon_storage::fault::site::COMMIT_PEER_APPEND,
            0,
            Some(victim.0),
        );
        let mut txn = coord.catalog.begin();
        txn.push(CatalogOp::SetMergeoutCoordinator {
            shard: ShardId(0),
            node: NodeId(0),
        });
        let err = db.commit_cluster(txn, &coord).unwrap_err();
        match &err {
            EonError::ClusterDown(msg) => {
                assert!(
                    msg.contains(&format!("metadata divergence on {victim}")),
                    "wrong divergence message: {msg}"
                );
            }
            other => panic!("expected ClusterDown, got {other:?}"),
        }
        // §3.4: once divergent, the cluster is down for everything.
        assert!(matches!(
            db.cluster_health(),
            crate::supervisor::ClusterHealth::Down { .. }
        ));
        assert!(db.copy_into("t", vec![vec![Value::Int(1), Value::Int(1)]]).is_err());
    }

    #[test]
    fn lone_commit_is_a_batch_of_one() {
        // Statements one at a time: bootstrap (two transactions), DDL,
        // COPY, DDL, DELETE, COPY. With nobody behind the lock each is
        // its own batch, with its own append, and nobody parks as a
        // follower.
        let db = db_with(EonConfig::new(3, 3));
        db.copy_into("t", (0..40).map(|i| vec![Value::Int(i), Value::Int(7)]).collect())
            .unwrap();
        let s = schema![("x", Int)];
        db.create_table(
            "t2",
            s.clone(),
            vec![Projection::super_projection("t2p", &s, &[0], &[0])],
        )
        .unwrap();
        let pred = eon_columnar::Predicate::cmp(0, eon_columnar::pruning::CmpOp::Lt, 10i64);
        assert_eq!(db.delete_where("t", &pred).unwrap(), 10);
        db.copy_into("t", vec![vec![Value::Int(99), Value::Int(1)]]).unwrap();

        let metrics = CommitMetrics::register(db.metrics());
        let statements = metrics.statements.get();
        assert_eq!(statements, 7);
        assert_eq!(db.version(), TxnVersion(statements));
        assert_eq!(metrics.batch_size.count(), statements);
        assert_eq!(metrics.batch_size.sum(), statements);
        assert_eq!(metrics.appends.get(), statements);
        assert_eq!(metrics.group_waits.get(), 0);

        // On disk a batch of one is a log file of one record: one
        // `txn/{v:020}-{v:020}` key per commit holding exactly that
        // record, on every node.
        for node in db.membership().up_nodes() {
            let want: Vec<String> = (1..=statements)
                .map(|v| format!("catalog/txn/{v:020}-{v:020}"))
                .collect();
            let mut keys = node.local_disk.list("catalog/txn/").unwrap();
            keys.sort();
            assert_eq!(keys, want, "{}", node.id);
            for (key, v) in want.iter().zip(1..) {
                let bytes = node.local_disk.read(key).unwrap();
                let recs = eon_catalog::log::decode_log_file(&bytes).unwrap();
                assert_eq!(recs.len(), 1, "{key}");
                assert_eq!(recs[0].version, TxnVersion(v));
                assert_eq!(eon_catalog::log::encode_log_file(&recs), bytes);
            }
        }
    }

    #[test]
    fn commit_crash_points_hold_for_a_lone_statement() {
        // No concurrency: a lone COPY is a batch of one, so the
        // leader's crash points are its crash points.
        for s in [
            site::COMMIT_LEADER_APPEND,
            site::COMMIT_MID_DISTRIBUTION,
            site::COMMIT_POST_APPEND,
        ] {
            let faults = FaultPlan::inert();
            let db = db_with(EonConfig::new(3, 3).faults(faults.clone()));
            let base = vec![vec![Value::Int(1), Value::Int(1)]];
            db.copy_into("t", base.clone()).unwrap();
            let v0 = db.version();

            faults.rearm(s, 0, None);
            let row = vec![Value::Int(2), Value::Int(2)];
            let err = db.copy_into("t", vec![row.clone()]).unwrap_err();
            assert!(matches!(err, EonError::FaultInjected(_)), "site {s}: {err}");

            // The leader died: recover every node from its durable log.
            db.cold_restart_all().unwrap();
            let durable = s != site::COMMIT_LEADER_APPEND;
            for node in db.membership().up_nodes() {
                let recs = node.store.read_records_after(v0).unwrap();
                assert_eq!(recs.len(), durable as usize, "site {s}: {}", node.id);
            }
            let mut model = crate::TableModel { name: "t".into(), rows: base };
            if durable {
                model.rows.push(row);
            }
            let report = crate::check_crash_invariants(&db, &[model]).unwrap();
            assert_eq!(
                report.reclaimed.is_empty(),
                durable,
                "site {s}: an aborted upload is a crash orphan, a durable one is live: {:?}",
                report.reclaimed
            );
        }
    }

    #[test]
    fn concurrent_commits_batch_without_a_window() {
        // No timer, no cap: statements that arrive while a batch holds
        // the commit lock form the next batch. The first round is pinned
        // into one batch behind a held lock; then the threads run free.
        const THREADS: usize = 8;
        const PER: usize = 20;
        let db = db_with(EonConfig::new(3, 3));
        let metrics = CommitMetrics::register(db.metrics());
        let (appends0, stmts0) = (metrics.appends.get(), metrics.statements.get());
        let batched0 = metrics.batch_size.sum();
        let v0 = db.version();
        db.pinned_batch(THREADS, |t| {
            for i in 0..PER {
                let id = (t * PER + i) as i64;
                db.copy_into("t", vec![vec![Value::Int(id), Value::Int(7)]])
                    .unwrap();
            }
        });
        let total = (THREADS * PER) as u64;
        assert_eq!(db.version(), TxnVersion(v0.0 + total));
        for node in db.membership().up_nodes() {
            let versions: Vec<u64> = node
                .store
                .read_records_after(v0)
                .unwrap()
                .iter()
                .map(|r| r.version.0)
                .collect();
            let want: Vec<u64> = (v0.0 + 1..=v0.0 + total).collect();
            assert_eq!(versions, want, "{}", node.id);
        }
        let appends = metrics.appends.get() - appends0;
        let stmts = metrics.statements.get() - stmts0;
        assert_eq!(stmts, total);
        assert!(appends < stmts, "{appends} appends for {stmts} statements");
        assert_eq!(metrics.batch_size.sum() - batched0, stmts);
    }
}
