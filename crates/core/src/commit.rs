//! The cluster commit protocol (DESIGN.md "Commit"). There is one:
//! every statement's commit — COPY, DML, DDL, mergeout, the bootstrap
//! transactions — is one call that holds the global commit lock (the
//! stand-in for Vertica's global catalog lock, §3.2) from validation to
//! the last peer's append, and writes one durable log file (§3.5).
//! Under the lock it:
//!
//! 1. fails typed with `NodeDown` if the statement's coordinator died
//!    since the statement began;
//! 2. re-validates the statement's §4.5 writer subscriptions against
//!    the *current* snapshot and OCC-commits it (§6.3) on its
//!    coordinator — a stale writer or a write conflict fails the
//!    statement before anything is distributed;
//! 3. applies the record to every other up node's in-memory catalog —
//!    §3.2's eager metadata redistribution; down nodes miss it and
//!    repair via re-subscription (§3.3);
//! 4. appends it as one log file `txn/{v}-{v}` on the coordinator (the
//!    §3.5 durability point), then on every peer;
//! 5. hands the dropped keys whose catalog reference count reached
//!    zero to the §6.5 reaper.
//!
//! Statements do not batch: no workload commits concurrently (DESIGN.md
//! "Commit"), so every commit pays its own append and distribution.

use std::sync::Arc;

use eon_catalog::{Txn, TxnRecord};
use eon_cluster::NodeRuntime;
use eon_obs::{Counter, Registry};
use eon_storage::fault::site;
use eon_types::{EonError, Result};

use crate::db::EonDb;
use crate::load::LoadWriters;

/// Registry handles for the commit protocol, registered once when the
/// database is built.
pub(crate) struct CommitMetrics {
    /// Statements committed through the cluster commit protocol.
    pub(crate) statements: Arc<Counter>,
    /// Durable log-file appends on the coordinator (one per statement).
    pub(crate) appends: Arc<Counter>,
}

impl CommitMetrics {
    pub(crate) fn new(registry: &Registry) -> Self {
        let labels: &[(&str, &str)] = &[("subsystem", "commit")];
        CommitMetrics {
            statements: registry.counter("commit_statements_total", labels),
            appends: registry.counter("commit_appends_total", labels),
        }
    }
}

impl EonDb {
    /// Commit a catalog transaction cluster-wide.
    pub(crate) fn commit_cluster(
        &self,
        txn: Txn,
        coordinator: &Arc<NodeRuntime>,
    ) -> Result<TxnRecord> {
        self.commit_one(txn, coordinator, None)
    }

    /// Commit a staged write (COPY / UPDATE), re-checking under the
    /// commit lock that every writer still holds its subscription; a
    /// concurrent rebalance forces a rollback (§4.5).
    pub(crate) fn commit_staged_write(
        &self,
        txn: Txn,
        coord: &Arc<NodeRuntime>,
        writers: LoadWriters,
    ) -> Result<TxnRecord> {
        self.commit_one(txn, coord, Some(&writers))
    }

    /// The whole protocol for one statement, under the commit lock.
    fn commit_one(
        &self,
        txn: Txn,
        coord: &Arc<NodeRuntime>,
        writers: Option<&LoadWriters>,
    ) -> Result<TxnRecord> {
        let _lock = self.commit_lock.lock();
        // A coordinator that died since the statement began stopped
        // receiving commits: OCC against its catalog would validate
        // stale state and mint a version its peers already hold.
        if !coord.is_up() {
            let died = format!("coordinator {} died before commit", coord.id);
            return Err(EonError::NodeDown(died));
        }
        // Catalogs are in lockstep, so a Txn begun on any node's catalog
        // validates identically on the coordinator's.
        if let Some(w) = writers {
            self.validate_writers(&coord.catalog.snapshot(), w)?;
        }
        let keys = Self::dropped_keys(&txn);
        let rec = coord.catalog.commit(txn)?;
        self.commit_metrics.statements.inc();
        self.distribute(coord, &rec)?;

        // Reference count (§6.5) against the post-commit snapshot: only
        // keys with no remaining catalog reference become deletion
        // candidates.
        let post = coord.catalog.snapshot();
        let orphaned: Vec<String> = keys
            .into_iter()
            .filter(|k| {
                !post.containers.values().any(|c| &c.key == k)
                    && !post.delete_vectors.values().any(|d| &d.key == k)
            })
            .collect();
        self.reaper.note_dropped(orphaned, rec.version);
        Ok(rec)
    }

    /// Apply, then append; any error fails the statement.
    ///
    /// The in-memory apply runs on every peer first; a peer that
    /// refuses a record its coordinator accepted is §3.4 divergence and
    /// halts the cluster. Then durability and distribution: one log
    /// file, appended first on the coordinator (the §3.5 durability
    /// point), then on every peer. A fired crash site models the
    /// coordinator process dying. A peer that applied in memory but
    /// cannot persist the record (`commit.peer_append`) is just as
    /// divergent as one that refused it, never a retryable storage
    /// error: its next local recovery would silently rewind behind the
    /// cluster.
    fn distribute(&self, coord: &NodeRuntime, rec: &TxnRecord) -> Result<()> {
        let faults = &self.config.faults;
        let records = std::slice::from_ref(rec);
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
        self.commit_metrics.appends.inc();
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

    #[test]
    fn conflicting_commit_fails_alone() {
        let db = db_with(EonConfig::new(3, 3));
        let coord = db.membership().up_nodes()[0].clone();
        let oid = coord.catalog.snapshot().table_by_name("t").unwrap().oid;
        let v0 = db.version();
        // Both transactions drop the same table from one snapshot: the
        // first commits, the second gets its own WriteConflict and
        // leaves no trace.
        let drop_t = || {
            let mut txn = coord.catalog.begin();
            txn.push(CatalogOp::DropTable(oid));
            txn
        };
        let (first, second) = (drop_t(), drop_t());
        db.commit_cluster(first, &coord).unwrap();
        let err = db.commit_cluster(second, &coord).unwrap_err();
        assert!(matches!(err, EonError::WriteConflict(_)), "{err:?}");
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
    fn lone_commit_is_one_log_file() {
        // Statements one at a time: bootstrap (two transactions), DDL,
        // COPY, DDL, DELETE, COPY. Each takes the commit lock alone and
        // pays its own append.
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

        let metrics = &db.commit_metrics;
        let statements = metrics.statements.get();
        assert_eq!(statements, 7);
        assert_eq!(db.version(), TxnVersion(statements));
        assert_eq!(metrics.appends.get(), statements);

        // On disk a commit is a log file of one record: one
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
                let version = TxnVersion(v);
                let recs = eon_catalog::codec::decode_log_file(&bytes, (version, version)).unwrap();
                assert_eq!(recs.len(), 1, "{key}");
                assert_eq!(recs[0].version, version);
                assert_eq!(eon_catalog::codec::encode_log_file(&recs), bytes);
            }
        }
    }

    #[test]
    fn commit_crash_points_hold_for_a_lone_statement() {
        // A lone COPY crashes at each commit site in turn; only a
        // crash before the coordinator's append loses the statement.
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

            // The coordinator died: recover every node from its durable
            // log.
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
    fn concurrent_commits_append_one_file_each() {
        // Free-running writers serialize on the commit lock: versions
        // are consecutive on every node and every statement is its own
        // append and its own `txn/{v}-{v}` file.
        const THREADS: usize = 8;
        const PER: usize = 20;
        let db = db_with(EonConfig::new(3, 3));
        let metrics = &db.commit_metrics;
        let (appends0, stmts0) = (metrics.appends.get(), metrics.statements.get());
        let v0 = db.version();
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let db = &db;
                scope.spawn(move || {
                    for i in 0..PER {
                        let id = (t * PER + i) as i64;
                        db.copy_into("t", vec![vec![Value::Int(id), Value::Int(7)]])
                            .unwrap();
                    }
                });
            }
        });
        let total = (THREADS * PER) as u64;
        assert_eq!(db.version(), TxnVersion(v0.0 + total));
        let want: Vec<u64> = (v0.0 + 1..=v0.0 + total).collect();
        let files: Vec<String> = want
            .iter()
            .map(|v| format!("catalog/txn/{v:020}-{v:020}"))
            .collect();
        for node in db.membership().up_nodes() {
            let versions: Vec<u64> = node
                .store
                .read_records_after(v0)
                .unwrap()
                .iter()
                .map(|r| r.version.0)
                .collect();
            assert_eq!(versions, want, "{}", node.id);
            let mut keys = node.local_disk.list("catalog/txn/").unwrap();
            keys.sort();
            assert_eq!(keys[keys.len() - files.len()..], files[..], "{}", node.id);
        }
        assert_eq!(metrics.statements.get() - stmts0, total);
        assert_eq!(metrics.appends.get() - appends0, total);
        assert_eq!(metrics.appends.get(), metrics.statements.get());
    }
}
