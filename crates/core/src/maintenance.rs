//! Background services: mergeout (§6.2), metadata sync + consensus
//! truncation + `cluster_info` (§3.5), and file deletion (§6.5).

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use eon_cache::CacheMode;
use eon_catalog::{CatalogOp, ClusterInfo, SubState};
use eon_columnar::Batch;
use eon_storage::fault::site as fault_site;
use eon_tm::{plan_mergeout, select_coordinators, MergeoutPolicy};
use eon_types::{Oid, Result, ShardId, TxnVersion};

use crate::db::EonDb;
use crate::provider::NodeProvider;

/// Lease duration stamped into `cluster_info` by every metadata
/// sync and by revive, milliseconds (§3.5): a revive refuses to start
/// while the previous cluster's lease is live.
pub(crate) const LEASE_MS: u64 = 10_000;

/// A shared-storage file whose catalog reference count hit zero at
/// `drop_version` — deletable once no query and no pending revive can
/// still reference it (§6.5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingDelete {
    pub key: String,
    pub drop_version: TxnVersion,
}

/// Tracks zero-reference files awaiting safe deletion.
#[derive(Default)]
pub struct Reaper {
    pending: Mutex<Vec<PendingDelete>>,
}

impl Reaper {
    /// Register keys whose catalog references were dropped at
    /// `version`.
    pub fn note_dropped(&self, keys: Vec<String>, version: TxnVersion) {
        let mut g = self.pending.lock();
        for key in keys {
            g.push(PendingDelete {
                key,
                drop_version: version,
            });
        }
    }

    pub fn pending_count(&self) -> usize {
        self.pending.lock().len()
    }

    /// Keys currently awaiting safe deletion (invariant-checker
    /// introspection: pending keys are accounted for, not leaked).
    pub fn pending_keys(&self) -> Vec<String> {
        self.pending.lock().iter().map(|p| p.key.clone()).collect()
    }

    /// Register keys a statement uploaded but never committed
    /// (DESIGN.md "Write pipeline" rollback rule). `TxnVersion::ZERO`
    /// makes them deletable immediately: no query snapshot and no
    /// truncation version can reference a file the catalog never saw.
    pub fn note_uncommitted(&self, keys: Vec<String>) {
        self.note_dropped(keys, TxnVersion::ZERO);
    }

    /// Take the deletes that are safe given the cluster's minimum
    /// in-flight query version and the durable truncation version
    /// (§6.5's two retention reasons).
    pub fn take_safe(&self, min_query_version: u64, truncation: TxnVersion) -> Vec<PendingDelete> {
        let mut g = self.pending.lock();
        let (safe, keep): (Vec<_>, Vec<_>) = g
            .drain(..)
            .partition(|p| min_query_version > p.drop_version.0 && truncation >= p.drop_version);
        *g = keep;
        safe
    }

    /// Put entries taken by [`Reaper::take_safe`] back on the pending
    /// list — a reap pass that failed part-way re-registers what it
    /// could not delete instead of leaking it.
    pub fn reinstate(&self, entries: Vec<PendingDelete>) {
        self.pending.lock().extend(entries);
    }
}

impl EonDb {
    /// Run one mergeout pass across every shard (§6.2): the shard's
    /// coordinator plans jobs from the strata algorithm, executes them
    /// (purging deleted rows), and commits the swap. Returns the number
    /// of jobs executed.
    pub fn run_mergeout(&self) -> Result<usize> {
        self.ensure_viable()?;
        let coord = self.pick_coordinator()?;
        let snapshot = coord.catalog.snapshot();

        // (Re-)elect coordinators for shards lacking a live one.
        let up = self.membership.up_ids();
        let mut shards_subs: Vec<(ShardId, Vec<eon_types::NodeId>)> = Vec::new();
        let mut all_shards = self.segment_shards();
        all_shards.push(self.replica_shard());
        for &s in &all_shards {
            let subs: Vec<_> = snapshot
                .subscribers_in(s, SubState::Active)
                .into_iter()
                .filter(|n| up.contains(n))
                .collect();
            shards_subs.push((s, subs));
        }
        let coordinators = select_coordinators(&shards_subs);
        {
            let mut txn = coord.catalog.begin();
            let mut changed = false;
            for (&shard, &node) in &coordinators {
                if snapshot.mergeout_coord.get(&shard) != Some(&node) {
                    txn.push(CatalogOp::SetMergeoutCoordinator { shard, node });
                    changed = true;
                }
            }
            if changed {
                self.commit_cluster(txn, &coord)?;
            }
        }

        let snapshot = coord.catalog.snapshot();
        let policy = MergeoutPolicy::default();
        let metrics = eon_tm::MergeoutMetrics::register(&self.config.obs);
        let mut jobs_run = 0;

        // Group containers by (projection, shard) and plan each group.
        let mut groups: HashMap<(Oid, ShardId), Vec<eon_tm::mergeout::MergeInput>> =
            HashMap::new();
        for c in snapshot.containers.values() {
            let deleted: u64 = snapshot
                .delete_vectors_for(c.oid)
                .iter()
                .map(|d| d.deleted_rows)
                .sum();
            groups.entry((c.projection, c.shard)).or_default().push(
                eon_tm::mergeout::MergeInput {
                    oid: c.oid,
                    rows: c.rows,
                    deleted,
                },
            );
        }

        // Fixed job order: HashMap iteration varies run to run, and if
        // a crash lands mid-mergeout the job being executed determines
        // which upload is orphaned — seeded chaos runs must replay
        // identically (DESIGN.md "Fault model").
        let mut groups: Vec<((Oid, ShardId), Vec<eon_tm::mergeout::MergeInput>)> =
            groups.into_iter().collect();
        groups.sort_by_key(|(k, _)| *k);
        for ((proj_oid, shard), mut inputs) in groups {
            inputs.sort_by_key(|i| (i.rows, i.oid));
            let jobs = plan_mergeout(&inputs, &policy);
            if jobs.is_empty() {
                continue;
            }
            // The coordinator for this shard runs the jobs (§6.2); it
            // could farm them out, we run them inline on that node.
            let worker_id = coordinators.get(&shard).copied();
            let Some(worker_id) = worker_id else { continue };
            let worker = match self.membership.get(worker_id) {
                Some(w) if w.is_up() => w,
                _ => continue,
            };

            for job in jobs {
                jobs_run += 1;
                self.execute_merge_job(&worker, proj_oid, shard, &job.inputs, &policy, &metrics)?;
            }
        }
        Ok(jobs_run)
    }

    /// Read the input containers (applying delete vectors), merge into
    /// one sorted container, commit Add+Drops, and register the old
    /// files with the reaper.
    fn execute_merge_job(
        &self,
        worker: &Arc<eon_cluster::NodeRuntime>,
        proj_oid: Oid,
        shard: ShardId,
        inputs: &[Oid],
        policy: &MergeoutPolicy,
        metrics: &eon_tm::MergeoutMetrics,
    ) -> Result<()> {
        let coord = self.pick_coordinator()?;
        let mut txn = coord.catalog.begin();
        let snapshot = txn.snapshot().clone();
        let Some((table, proj)) = snapshot.tables.values().find_map(|t| {
            t.projection(proj_oid).map(|p| (t.clone(), p.clone()))
        }) else {
            return Ok(()); // table dropped concurrently
        };

        let provider = NodeProvider {
            node: worker.clone(),
            snapshot: Arc::new(snapshot.clone()),
            my_shards: self.segment_shards(),
            all_shards: self.segment_shards(),
            replica_shard: self.replica_shard(),
            cache_mode: CacheMode::Normal,
            crunch: None,
            // Mergeout reads serially — its parallelism is across
            // jobs, not within one container scan.
            scan: crate::provider::ScanOptions {
                workers: 1,
                ..self.scan_options(worker, None, None)
            },
        };

        // Each input's surviving rows (already sorted within a
        // container), concatenated in input order; the upload's stable
        // sort on the projection order then makes the order a stable
        // k-way merge would, ties resolved by input.
        let mut pieces = Vec::new();
        for oid in inputs {
            let Some(c) = snapshot.containers.get(oid) else {
                return Ok(()); // concurrent mergeout took it
            };
            pieces.extend(provider.scan_container_for_merge(&table, &proj, c)?);
            txn.push(CatalogOp::DropContainer(*oid));
        }
        let merged = Batch::concat(pieces, proj.columns.len());
        let mut rewritten = (0u64, 0u64, 0usize); // rows, bytes, stratum
        if merged.rows() > 0 {
            // Crash site: inputs read, merged container not yet written
            // — nothing on shared storage changes.
            self.config.faults.hit(fault_site::MERGEOUT_PRE_WRITE)?;
            let meta =
                self.write_container(worker, &proj, proj_oid, table.oid, shard, merged, &coord)?;
            rewritten = (meta.rows, meta.size_bytes, policy.stratum(meta.rows));
            txn.push(CatalogOp::AddContainer(meta));
        }
        // Crash site: the merged container is uploaded but the Add+Drop
        // swap never commits — old containers stay live (queries must
        // still answer from them) and the new file is an orphan (§6.5).
        self.config.faults.hit(fault_site::MERGEOUT_PRE_COMMIT)?;
        // The commit path registers the dropped files with the reaper.
        self.commit_cluster(txn, &coord)?;
        metrics.record_job(inputs.len(), rewritten.0, rewritten.1, rewritten.2);
        Ok(())
    }

    /// Upload every node's catalog to shared storage, compute the
    /// consensus truncation version (Fig 5), and write
    /// `cluster_info` (§3.5). Returns the info written.
    pub fn sync_metadata(&self, now_ms: u64) -> Result<ClusterInfo> {
        let mut intervals = HashMap::new();
        for node in self.membership.up_nodes() {
            node.checkpoint()?;
            let si = node.store.sync_to_shared()?;
            intervals.insert(node.id, si);
        }
        let snapshot = self.snapshot()?;
        let mut subscribers: HashMap<ShardId, Vec<eon_types::NodeId>> = HashMap::new();
        let mut shards = self.segment_shards();
        shards.push(self.replica_shard());
        for s in shards {
            subscribers.insert(s, snapshot.subscribers_in(s, SubState::Active));
        }
        let truncation = eon_shard::consensus_truncation(&subscribers, &intervals)
            .ok_or_else(|| eon_types::EonError::Internal("no consensus truncation".into()))?;
        // Crash site: catalogs uploaded but `cluster_info` never
        // rewritten — revive must work from the *previous* info's
        // truncation version (§3.5).
        self.config.faults.hit(fault_site::SYNC_PRE_INFO_WRITE)?;
        let info = ClusterInfo {
            truncation_version: truncation,
            incarnation: self.incarnation(),
            database: self.config.database.clone(),
            timestamp_ms: now_ms,
            lease_until_ms: now_ms + LEASE_MS,
            nodes: self.membership.up_ids().iter().map(|n| n.0).collect(),
        };
        info.write(self.shared.as_ref())?;
        Ok(info)
    }

    /// Invariant-checker introspection: shared-storage keys currently
    /// awaiting safe deletion. Rollback tests use this to prove a
    /// failed statement's uploads are accounted for, not leaked.
    pub fn reaper_pending_keys(&self) -> Vec<String> {
        self.reaper.pending_keys()
    }

    /// Delete zero-reference files whose retention conditions have
    /// passed (§6.5). Returns keys deleted.
    ///
    /// A failed DELETE must not lose the entry: every key the pass
    /// could not remove — the failed one and any it never reached — is
    /// reinstated on the pending list for the next pass. Ambiguous S3
    /// outcomes (the delete applied but the response was lost) are
    /// safe to re-register too: deleting a missing object is not an
    /// error, so the retry is a no-op.
    pub fn reap_files(&self) -> Result<Vec<String>> {
        // No up nodes = no attestation that old versions are unread (a
        // restarting node may resume a query): skip the pass entirely
        // rather than treat a full outage as "fully quiescent".
        let Some(min_q) = self.membership.min_query_version() else {
            return Ok(Vec::new());
        };
        let truncation = ClusterInfo::read(self.shared.as_ref())?
            .map(|i| i.truncation_version)
            .unwrap_or(TxnVersion::ZERO);
        let safe = self.reaper.take_safe(min_q, truncation);
        let mut deleted = Vec::with_capacity(safe.len());
        let mut kept = Vec::new();
        let mut first_err = None;
        for p in safe {
            match self.shared.delete(&p.key) {
                Ok(()) => {
                    for node in self.membership.up_nodes() {
                        // A failed local evict never justifies leaking
                        // the shared file; the cache copy dies with the
                        // node's instance storage anyway.
                        let _ = node.cache.evict(&p.key);
                        node.forget_footer(&p.key);
                    }
                    deleted.push(p.key);
                }
                Err(e) => {
                    kept.push(p);
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        if !kept.is_empty() {
            self.config
                .obs
                .counter("reaper_reinstated_total", &[("subsystem", "reaper")])
                .add(kept.len() as u64);
            self.reaper.reinstate(kept);
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(deleted),
        }
    }

    /// The §6.5 fallback: enumerate shared storage, delete any data
    /// file no node references, skipping files whose name carries a
    /// live node's instance id (they may be mid-creation). Run manually
    /// after crashes.
    pub fn leak_scan(&self) -> Result<Vec<String>> {
        let mut referenced: std::collections::HashSet<String> = std::collections::HashSet::new();
        for node in self.membership.up_nodes() {
            let snap = node.catalog.snapshot();
            referenced.extend(snap.containers.values().map(|c| c.key.clone()));
            referenced.extend(snap.delete_vectors.values().map(|d| d.key.clone()));
        }
        // Pending (not yet reaped) drops are known, not leaked.
        {
            let g = self.reaper.pending.lock();
            referenced.extend(g.iter().map(|p| p.key.clone()));
        }
        let live_instances: Vec<eon_storage::InstanceId> = self
            .membership
            .up_nodes()
            .iter()
            .map(|n| n.instance())
            .collect();
        let mut deleted = Vec::new();
        for key in self.shared.list("data/")? {
            if referenced.contains(&key) {
                continue;
            }
            if live_instances
                .iter()
                .any(|inst| eon_storage::StorageId::key_has_instance(&key, *inst))
            {
                continue; // §6.5: skip live instance prefixes
            }
            self.shared.delete(&key)?;
            deleted.push(key);
        }
        Ok(deleted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EonConfig;
    use eon_columnar::pruning::CmpOp;
    use eon_columnar::{Predicate, Projection};
    use eon_exec::{AggSpec, Plan, ScanSpec};
    use eon_storage::MemFs;
    use eon_types::{schema, Value};

    fn db_many_containers() -> Arc<EonDb> {
        let db = EonDb::create(Arc::new(MemFs::new()), EonConfig::new(3, 3)).unwrap();
        let s = schema![("id", Int), ("v", Int)];
        db.create_table(
            "t",
            s.clone(),
            vec![Projection::super_projection("p", &s, &[0], &[0])],
        )
        .unwrap();
        // Many small loads → many containers per shard.
        for batch in 0..6 {
            let rows = (0..300)
                .map(|i| vec![Value::Int(batch * 300 + i), Value::Int(1)])
                .collect();
            db.copy_into("t", rows).unwrap();
        }
        db
    }

    fn count(db: &EonDb) -> i64 {
        let plan = Plan::scan(ScanSpec::new("t")).aggregate(vec![], vec![AggSpec::count_star()]);
        db.query(&plan).unwrap()[0][0].as_int().unwrap()
    }

    #[test]
    fn mergeout_reduces_containers_preserving_data() {
        let db = db_many_containers();
        let before = db.snapshot().unwrap().containers.len();
        assert_eq!(count(&db), 1800);
        let jobs = db.run_mergeout().unwrap();
        assert!(jobs > 0, "expected mergeout work");
        let after = db.snapshot().unwrap().containers.len();
        assert!(after < before, "{after} !< {before}");
        assert_eq!(count(&db), 1800, "mergeout must not lose rows");
    }

    #[test]
    fn mergeout_purges_deleted_rows() {
        let db = db_many_containers();
        db.delete_where("t", &Predicate::cmp(0, CmpOp::Lt, 900i64)).unwrap();
        assert_eq!(count(&db), 900);
        db.run_mergeout().unwrap();
        assert_eq!(count(&db), 900);
        // After merge, delete vectors for merged containers are gone.
        let snap = db.snapshot().unwrap();
        let live_rows: u64 = snap.containers.values().map(|c| c.rows).sum();
        assert_eq!(live_rows, 900, "purge should shrink physical rows");
    }

    /// A merge job's rows are the stable order of its inputs'
    /// concatenation: four containers whose sort keys tie across them,
    /// one with a delete vector, merge into rows sorted by key, ties in
    /// input order and then in load order, deleted rows purged.
    #[test]
    fn mergeout_keeps_the_stable_order_of_its_inputs() {
        let db = EonDb::create(Arc::new(MemFs::new()), EonConfig::new(1, 1)).unwrap();
        let s = schema![("k", Int), ("input", Int), ("pos", Int), ("tag", Str)];
        let proj = Projection::super_projection("p", &s, &[0], &[0]);
        db.create_table("t", s, vec![proj]).unwrap();
        let batch = |b: i64| -> Vec<Vec<Value>> {
            (0..200)
                .map(|i| vec![Value::Int((i * 7 + b) % 5), Value::Int(b), Value::Int(i), Value::Str(format!("t{}", i % 3))])
                .collect()
        };
        for b in 0..4 {
            db.copy_into("t", batch(b)).unwrap();
        }
        let doomed = Predicate::And(vec![Predicate::eq(1, 2i64), Predicate::cmp(2, CmpOp::Lt, 20i64)]);
        assert_eq!(db.delete_where("t", &doomed).unwrap(), 20);

        assert_eq!(db.run_mergeout().unwrap(), 1);
        let snap = db.snapshot().unwrap();
        let merged: Vec<_> = snap.containers.values().collect();
        assert_eq!(merged.len(), 1, "the four inputs merge into one container");
        let fs = db.shared().as_ref();
        let reader = eon_columnar::RosReader::open(fs, &merged[0].key).unwrap();
        let cols: Vec<Vec<Value>> = (0..4).map(|c| reader.read_column(fs, c).unwrap().to_values()).collect();
        let got: Vec<Vec<Value>> = (0..cols[0].len()).map(|i| cols.iter().map(|c| c[i].clone()).collect()).collect();

        let mut want: Vec<Vec<Value>> = (0..4)
            .flat_map(batch)
            .filter(|r| !(r[1] == Value::Int(2) && r[2] < Value::Int(20)))
            .collect();
        want.sort_by(|a, b| a[0].cmp(&b[0]));
        assert_eq!(got.len(), 780);
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
    }

    #[test]
    fn mergeout_selects_coordinators_per_shard() {
        let db = db_many_containers();
        db.run_mergeout().unwrap();
        let snap = db.snapshot().unwrap();
        for s in db.segment_shards() {
            let coord = snap.mergeout_coord.get(&s).copied();
            assert!(coord.is_some(), "no coordinator for {s}");
            // Coordinator must subscribe to the shard.
            assert!(snap
                .subscribers_in(s, SubState::Active)
                .contains(&coord.unwrap()));
        }
    }

    #[test]
    fn sync_writes_cluster_info_with_consensus() {
        let db = db_many_containers();
        let info = db.sync_metadata(1_000).unwrap();
        assert_eq!(info.truncation_version, db.version());
        assert!(info.lease_live(1_500));
        let read_back = ClusterInfo::read(db.shared().as_ref()).unwrap().unwrap();
        assert_eq!(read_back, info);
    }

    #[test]
    fn reaper_holds_files_until_safe() {
        let db = db_many_containers();
        let keys_before: Vec<String> = db.shared().list("data/").unwrap();
        db.run_mergeout().unwrap();
        assert!(db.reaper.pending_count() > 0);
        // Without a truncation version advanced past the drop, nothing
        // reaps.
        let deleted = db.reap_files().unwrap();
        assert!(deleted.is_empty(), "reaped too early: {deleted:?}");
        // Sync metadata (advances truncation), then reap.
        db.sync_metadata(1_000).unwrap();
        let deleted = db.reap_files().unwrap();
        assert!(!deleted.is_empty());
        for k in &deleted {
            assert!(!db.shared().exists(k).unwrap());
            assert!(keys_before.contains(k));
        }
        // Live data still queryable.
        assert_eq!(count(&db), 1800);
    }

    #[test]
    fn leak_scan_removes_orphans_only() {
        let db = db_many_containers();
        // Plant a leaked file with a dead instance prefix.
        db.shared()
            .write("data/aa/deadbeef_leaked", bytes::Bytes::from_static(b"x"))
            .unwrap();
        // Plant a file with a live node's instance id — must survive.
        let live = db.membership().up_nodes()[0].next_sid().object_key();
        db.shared().write(&live, bytes::Bytes::from_static(b"y")).unwrap();
        let deleted = db.leak_scan().unwrap();
        assert!(deleted.contains(&"data/aa/deadbeef_leaked".to_owned()));
        assert!(!deleted.contains(&live));
        assert_eq!(count(&db), 1800);
    }
}
